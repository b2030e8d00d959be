"""Row-set algebra over :class:`~repro.core.shared.RowSpec` lists.

Three consumers ask the same two questions about the axis-0 rows a
list of access records touches, and this module is the one place that
answers them:

* **the union** — as unique-row counts per touched block of a
  partition (:func:`block_counts`: the bundling engine's per-owner
  split) or as
  a sorted row array (:func:`union_rows`: the zero-merge worker's
  commit footprint);
* **cross-writer disjointness** — whether any row is covered by two
  different writers (:func:`ranks_disjoint`: the sanitizer's row-level
  pre-filter).

Neither needs a sort of the rows themselves.  A set takes one of three
forms, chosen from what the specs are, never by the caller:

1. **interval merge** — every spec is a plain ``[start, stop)`` range
   (block-partitioned VP loops): the sorted endpoints are merged and
   clipped against the partition, nothing is materialised;
2. **bitmap** — anything strided or fancy: each spec marks a ``bool``
   array of the axis-0 extent (``mask[rows] = True`` deduplicates for
   free) and ``flatnonzero`` reads the union back already sorted — time
   linear in the rows touched plus the extent, one byte per row;
3. **sorted fallback** — a footprint that is tiny against a huge extent
   (a handful of rows of a million-row array) would pay for clearing
   and scanning a bitmap it barely uses, so it is concatenated and
   sorted instead (the one ``np.unique`` left in the runtime).

All three yield exactly the same set: a row is in the union iff some
spec names it, and a row belongs to block ``i`` iff
``starts[i] <= row < starts[i + 1]`` — the rule
:meth:`~repro.core.shared.GlobalShared.owner_of` applies, so zero-width
blocks own nothing on every path.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.shared import RowSpec

#: A non-contiguous footprint takes the sorted fallback when the rows
#: it names (duplicates included) number fewer than ``extent /
#: _SPARSE_DIVISOR``.  Measured crossover of the sort against
#: ``zeros + mark + flatnonzero`` on int64 rows: between 1/500 and
#: 1/250 of the extent for extents from 2e4 to 1e7.
_SPARSE_DIVISOR = 256

_START = attrgetter("start")
_STOP = attrgetter("stop")


def _merged_intervals(specs: Iterable["RowSpec"]) -> list[tuple[int, int]]:
    """Sorted, pairwise non-touching ``[lo, hi)`` intervals covering
    the union of contiguous ``specs``."""
    merged: list[tuple[int, int]] = []
    cur_lo = cur_hi = -1
    for lo, hi in sorted(zip(map(_START, specs), map(_STOP, specs))):
        if hi <= lo:
            continue
        if lo <= cur_hi:
            if hi > cur_hi:
                cur_hi = hi
        else:
            if cur_hi > cur_lo:
                merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    if cur_hi > cur_lo:
        merged.append((cur_lo, cur_hi))
    return merged


def union_rows(specs: Sequence["RowSpec"], extent: int) -> np.ndarray:
    """Sorted unique rows named by ``specs`` (int64), all of which lie
    in ``[0, extent)``."""
    if all(s.is_contiguous for s in specs):
        runs = [np.arange(lo, hi, dtype=np.int64) for lo, hi in _merged_intervals(specs)]
        return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    if sum(s.count for s in specs) * _SPARSE_DIVISOR < extent:
        return np.unique(np.concatenate([s.materialize() for s in specs]))
    mask = np.zeros(extent, dtype=bool)
    for s in specs:
        mask[s.index()] = True
    return np.flatnonzero(mask)


def block_counts(specs: Sequence["RowSpec"], starts: np.ndarray) -> list[tuple[int, int]]:
    """``(block, unique rows)`` for every block ``[starts[i],
    starts[i + 1])`` of a partition of ``[0, starts[-1])`` that the
    union of ``specs`` touches, in block order — the non-zero entries
    of what deduplicating the rows, ``owner_of`` and ``bincount`` would
    count."""
    for s in specs:
        if s.array is not None or s.step != 1:
            rows = union_rows(specs, int(starts[-1]))
            # rows is sorted: its insertion points at the boundaries are
            # the running counts of rows below each boundary.
            counts = np.diff(np.searchsorted(rows, starts))
            blocks = np.flatnonzero(counts)
            return list(zip(blocks.tolist(), counts[blocks].tolist()))
    counts: dict[int, int] = {}
    bounds = starts.tolist()
    for lo, hi in _merged_intervals(specs):
        # Blocks holding the interval's first and last row (to the right
        # of equal boundaries, as in GlobalShared.owner_of, so
        # zero-width blocks are skipped).  Intervals arrive sorted and
        # disjoint, so blocks are first seen in increasing order.
        o0 = bisect_right(bounds, lo) - 1
        o1 = bisect_right(bounds, hi - 1) - 1
        if o0 == o1:
            counts[o0] = counts.get(o0, 0) + hi - lo
        else:
            for o in range(o0, o1 + 1):
                rows = min(hi, bounds[o + 1]) - max(lo, bounds[o])
                if rows > 0:
                    counts[o] = counts.get(o, 0) + rows
    return list(counts.items())


def ranks_disjoint(rank_specs: Sequence[Sequence["RowSpec"]], extent: int) -> bool:
    """True iff no row is named by the spec lists of two *different*
    writers (``rank_specs`` holds one list per writer; a writer naming
    a row twice is not an overlap)."""
    if all(s.is_contiguous for specs in rank_specs for s in specs):
        ivs = sorted(
            (s.start, s.stop, w)
            for w, specs in enumerate(rank_specs)
            for s in specs
            if s.stop > s.start
        )
        # Sweep in start order.  While no overlap has been found every
        # earlier writer's intervals end at or before the current run's
        # start, so (reach, owner) of the farthest-reaching interval is
        # all the state the sweep needs.
        reach, owner = 0, -1
        for lo, hi, w in ivs:
            if lo >= reach:
                reach, owner = hi, w
            elif w != owner:
                return False
            elif hi > reach:
                reach = hi
        return True
    covered = np.zeros(extent, dtype=bool)
    for specs in rank_specs:
        indexes = [s.index() for s in specs]
        for ix in indexes:
            if covered[ix].any():
                return False
        for ix in indexes:
            covered[ix] = True
    return True
