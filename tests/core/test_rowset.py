"""The row-set kernel against its reference: ``np.unique`` over the
materialised rows, ``owner_of`` and ``bincount``."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import testing as mkconfig
from repro.core import rowset
from repro.core.bundling import aggregate_traffic
from repro.core.phase import PhaseRecorder
from repro.core.program import PpmProgram
from repro.core.rowset import block_counts, ranks_disjoint, union_rows
from repro.core.shared import RowSpec, _normalize_rows
from repro.machine import Cluster


# ----------------------------------------------------------------------
# Reference implementations (the idiom the kernel replaced)
# ----------------------------------------------------------------------
def ref_union(specs) -> np.ndarray:
    if not specs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([s.materialize() for s in specs]))


def ref_block_counts(specs, starts) -> np.ndarray:
    owners = np.searchsorted(starts, ref_union(specs), side="right") - 1
    return np.bincount(owners, minlength=len(starts) - 1)


def ref_disjoint(rank_specs) -> bool:
    per_rank = [ref_union(specs) for specs in rank_specs]
    everything = np.concatenate(per_rank) if per_rank else np.empty(0, np.int64)
    return np.unique(everything).size == everything.size


def dense(pairs, n_blocks: int) -> list[int]:
    """``block_counts``' sparse (block, rows) pairs as one count per
    block; also checks they come in block order, without zeros."""
    blocks = [b for b, _ in pairs]
    assert blocks == sorted(set(blocks)) and all(n > 0 for _, n in pairs)
    counts = [0] * n_blocks
    for b, n in pairs:
        counts[b] = n
    return counts


def partition(n0: int, n_nodes: int) -> np.ndarray:
    return np.array([(i * n0) // n_nodes for i in range(n_nodes + 1)], dtype=np.int64)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def spec(draw, n0: int) -> RowSpec:
    """One access's rows, built the way the runtime builds them."""
    form = draw(st.sampled_from(["range", "slice", "fancy", "int", "mask"]))
    row = st.integers(-n0, n0 - 1)
    if form == "range":
        idx = slice(draw(st.integers(0, n0)), draw(st.integers(0, n0)))
    elif form == "slice":
        step = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
        bound = st.one_of(st.none(), st.integers(-n0 - 2, n0 + 2))
        idx = slice(draw(bound), draw(bound), step)
    elif form == "fancy":
        idx = np.array(draw(st.lists(row, max_size=3 * n0 // 2 + 2)), dtype=np.int64)
    elif form == "int":
        idx = draw(row)
    else:
        idx = np.array(draw(st.lists(st.booleans(), min_size=n0, max_size=n0)), dtype=bool)
    return _normalize_rows(idx, n0)


@st.composite
def case(draw, max_specs: int = 6):
    """(extent, specs): small extents put every footprint on the
    bitmap side of the density switch, large ones on the sorted side."""
    n0 = draw(st.one_of(st.integers(1, 40), st.integers(3000, 6000)))
    inner = min(n0, 40)  # keep materialised references cheap

    @st.composite
    def shifted(draw):
        s = draw(spec(inner))
        shift = draw(st.integers(0, n0 - inner))
        if s.array is not None:
            return RowSpec.from_array(s.array + shift)
        return RowSpec(s.start + shift, s.stop + shift, s.step)

    return n0, draw(st.lists(shifted(), max_size=max_specs))


FORCED_FORMS = (
    None,  # the source's own selection rule
    0,  # bitmap for every non-contiguous footprint
    10**12,  # sorted fallback for every non-contiguous footprint
)


def each_form(fn):
    """Results of ``fn()`` under the selection rule and with either
    non-contiguous form forced."""
    out = []
    for divisor in FORCED_FORMS:
        if divisor is None:
            out.append(fn())
        else:
            with mock.patch.object(rowset, "_SPARSE_DIVISOR", divisor):
                out.append(fn())
    return out


# ----------------------------------------------------------------------
class TestUnionRows:
    def test_empty(self):
        assert union_rows([], 10).size == 0

    def test_single_range(self):
        assert union_rows([RowSpec.from_range(2, 5)], 10).tolist() == [2, 3, 4]

    def test_deduplicates_across_specs(self):
        specs = [
            RowSpec.from_range(0, 4),
            RowSpec.from_array(np.array([2, 3, 7])),
            RowSpec.from_array(np.array([7, 7])),
        ]
        for rows in each_form(lambda: union_rows(specs, 10)):
            assert rows.tolist() == [0, 1, 2, 3, 7]

    def test_disjoint_ranges_stay_intervals(self):
        specs = [RowSpec.from_range(6, 8), RowSpec.from_range(0, 2), RowSpec.from_range(1, 3)]
        assert union_rows(specs, 10).tolist() == [0, 1, 2, 6, 7]

    def test_negative_step_slice(self):
        specs = [_normalize_rows(slice(None, None, -3), 10)]  # rows 9, 6, 3, 0
        for rows in each_form(lambda: union_rows(specs, 10)):
            assert rows.tolist() == [0, 3, 6, 9]

    @given(case())
    @settings(deadline=None)
    def test_matches_reference(self, c):
        n0, specs = c
        want = ref_union(specs)
        for rows in each_form(lambda: union_rows(specs, n0)):
            assert rows.dtype == np.int64
            assert np.array_equal(rows, want)


class TestBlockCounts:
    def test_both_sides_of_the_density_switch(self):
        """The same three rows of a large array: sparse on their own,
        dense once a long strided spec joins them."""
        n0 = 4096
        starts = partition(n0, 4)
        few = [RowSpec.from_array(np.array([5, 5, 4000]))]
        many = few + [RowSpec.from_slice(0, n0, 2)]
        assert sum(s.count for s in few) * rowset._SPARSE_DIVISOR < n0
        assert sum(s.count for s in many) * rowset._SPARSE_DIVISOR >= n0
        assert dense(block_counts(few, starts), 4) == [1, 0, 0, 1]
        assert dense(block_counts(many, starts), 4) == [513, 512, 512, 512]

    @given(case(), st.data())
    @settings(deadline=None)
    def test_matches_reference(self, c, data):
        n0, specs = c
        # n_nodes > n0 gives zero-width blocks, which own nothing.
        n_nodes = data.draw(st.integers(1, 3 * min(n0, 40)))
        starts = partition(n0, n_nodes)
        want = ref_block_counts(specs, starts)
        for counts in each_form(lambda: block_counts(specs, starts)):
            assert dense(counts, n_nodes) == want.tolist()


class TestRanksDisjoint:
    def test_a_writer_overlapping_itself_is_not_a_conflict(self):
        a = [RowSpec.from_range(0, 4), RowSpec.from_range(2, 6)]
        b = [RowSpec.from_range(6, 8)]
        assert ranks_disjoint([a, b], 10)
        assert not ranks_disjoint([a, b + [RowSpec.from_range(5, 6)]], 10)

    def test_interval_nested_under_an_earlier_writers_reach(self):
        a = [RowSpec.from_range(0, 10), RowSpec.from_range(2, 3)]
        assert not ranks_disjoint([a, [RowSpec.from_range(5, 6)]], 10)

    def test_fancy_and_strided_writers(self):
        evens = [RowSpec.from_slice(0, 10, 2)]
        odds = [RowSpec.from_array(np.array([1, 3, 3, 9]))]
        assert ranks_disjoint([evens, odds], 10)
        assert not ranks_disjoint([evens, odds + [RowSpec.from_range(4, 5)]], 10)

    @given(st.data())
    @settings(deadline=None)
    def test_matches_reference(self, data):
        n0 = data.draw(st.integers(1, 24))
        # Contiguous-only draws exercise the interval sweep, mixed
        # draws the coverage bitmap.
        forms = spec(n0)
        if data.draw(st.booleans()):
            forms = forms.filter(lambda s: s.is_contiguous)
        rank_specs = data.draw(
            st.lists(st.lists(forms, min_size=1, max_size=3), min_size=2, max_size=5)
        )
        assert ranks_disjoint(rank_specs, n0) == ref_disjoint(rank_specs)


class TestBundlingOwnerSplit:
    """``aggregate_traffic`` on top of the kernel: element counts are
    the per-owner unique rows times the trailing extent."""

    @given(case(max_specs=4), st.integers(1, 60), st.integers(1, 3))
    @settings(deadline=None, max_examples=40)
    def test_matches_reference(self, c, n_nodes, trailing):
        n0, specs = c
        specs = specs or [RowSpec.from_range(0, 1)]
        ppm = PpmProgram(Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=1)))
        shape = (n0, trailing) if trailing > 1 else n0
        A = ppm.global_shared("A", shape)
        assert A._trailing == trailing
        rec = PhaseRecorder("global")
        for s in specs:
            rec.add_global_read(0, A, s, s.count * trailing)
        nt = aggregate_traffic(rec).get(0)
        got = {p.owner: p.read_elems for p in nt.peers}
        if nt.local_read_elems:
            got[0] = nt.local_read_elems
        owners = A.owner_of(ref_union(specs))
        want = np.bincount(owners, minlength=n_nodes) * trailing
        assert got == {int(o): int(want[o]) for o in np.nonzero(want)[0]}
