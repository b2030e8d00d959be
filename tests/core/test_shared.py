"""Tests for PPM shared variables: distribution, driver access,
indexing normalisation."""

from __future__ import annotations

import gc
import importlib
import weakref

import numpy as np
import pytest

from repro.apps.graph import hashed_graph, ppm_bfs, serial_bfs
from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import SharedAccessError
from repro.core.program import PpmProgram
from repro.core.shared import RowSpec, _normalize_rows
from repro.machine import Cluster


@pytest.fixture
def ppm4():
    """A program on 4 nodes x 2 cores."""
    return PpmProgram(Cluster(mkconfig(n_nodes=4, cores_per_node=2)))


class TestRowNormalisation:
    def test_int_index(self):
        spec = _normalize_rows(3, 10)
        assert spec.count == 1
        assert spec.materialize().tolist() == [3]

    def test_negative_int_wraps(self):
        assert _normalize_rows(-1, 10).materialize().tolist() == [9]

    def test_int_out_of_range(self):
        with pytest.raises(IndexError):
            _normalize_rows(10, 10)

    def test_unit_slice_is_range(self):
        spec = _normalize_rows(slice(2, 7), 10)
        assert spec.array is None
        assert (spec.start, spec.stop) == (2, 7)
        assert spec.count == 5

    def test_full_slice(self):
        assert _normalize_rows(slice(None), 10).count == 10

    def test_strided_slice_materialises(self):
        spec = _normalize_rows(slice(0, 10, 3), 10)
        assert spec.materialize().tolist() == [0, 3, 6, 9]

    def test_ellipsis(self):
        assert _normalize_rows(Ellipsis, 6).count == 6

    def test_fancy_array(self):
        spec = _normalize_rows(np.array([5, 1, 1]), 10)
        assert spec.materialize().tolist() == [5, 1, 1]

    def test_negative_fancy_indices_wrap(self):
        spec = _normalize_rows(np.array([-1, -10]), 10)
        assert spec.materialize().tolist() == [9, 0]

    def test_fancy_out_of_range(self):
        message = "row indices out of range for axis of length 10"
        for bad in ([10], [0, -11], [-11, 10]):
            with pytest.raises(IndexError, match=message):
                _normalize_rows(np.array(bad), 10)
        assert _normalize_rows(np.array([], dtype=np.int64), 10).count == 0

    def test_bool_mask(self):
        mask = np.array([True, False, True, False])
        assert _normalize_rows(mask, 4).materialize().tolist() == [0, 2]

    def test_bool_mask_wrong_length(self):
        with pytest.raises(IndexError):
            _normalize_rows(np.array([True]), 4)

    def test_tuple_uses_first_axis(self):
        spec = _normalize_rows((slice(1, 3), 0), 5)
        assert spec.count == 2

    def test_rowspec_range_materialize(self):
        assert RowSpec.from_range(2, 5).materialize().tolist() == [2, 3, 4]


class TestGlobalSharedDistribution:
    def test_block_partition_covers_everything(self, ppm4):
        A = ppm4.global_shared("A", 10)
        ranges = [A.local_range(i) for i in range(4)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_owner_of_matches_ranges(self, ppm4):
        A = ppm4.global_shared("A", 10)
        for node in range(4):
            lo, hi = A.local_range(node)
            for r in range(lo, hi):
                assert A.owner_of(r) == node

    def test_owner_of_vectorised(self, ppm4):
        A = ppm4.global_shared("A", 8)
        owners = A.owner_of(np.arange(8))
        assert owners.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_local_view_is_a_view(self, ppm4):
        A = ppm4.global_shared("A", 8)
        view = A.local_view(1)
        view[:] = 7.0
        assert (A.committed[2:4] == 7.0).all()

    def test_uneven_partition(self, ppm4):
        A = ppm4.global_shared("A", 7)
        sizes = [A.local_range(i)[1] - A.local_range(i)[0] for i in range(4)]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1

    def test_appears_in_node_memory(self, ppm4):
        ppm4.global_shared("A", 8)
        for node in ppm4.cluster:
            assert "gshared:A" in node.memory

    def test_duplicate_name_rejected(self, ppm4):
        ppm4.global_shared("A", 8)
        with pytest.raises(KeyError):
            ppm4.global_shared("A", 8)

    def test_2d_shape(self, ppm4):
        A = ppm4.global_shared("A", (8, 3))
        assert A.shape == (8, 3)
        assert A._trailing == 3

    def test_invalid_shape(self, ppm4):
        with pytest.raises(ValueError):
            ppm4.global_shared("bad", (-1,))


class TestDriverAccess:
    def test_driver_read_write(self, ppm4):
        A = ppm4.global_shared("A", 4)
        A[:] = np.arange(4.0)
        assert A[2] == 2.0
        assert A[:].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_driver_read_returns_copy(self, ppm4):
        A = ppm4.global_shared("A", 4)
        a = A[:]
        a[0] = 99.0
        assert A[0] == 0.0

    def test_driver_accumulate_applies_immediately(self, ppm4):
        A = ppm4.global_shared("A", 4)
        A.accumulate(np.array([1, 1, 2]), np.array([1.0, 2.0, 5.0]))
        assert A[1] == 3.0
        assert A[2] == 5.0

    def test_unknown_accumulate_op(self, ppm4):
        A = ppm4.global_shared("A", 4)
        with pytest.raises(ValueError, match="unknown accumulate op"):
            A.accumulate([0], [1.0], op="xor")

    def test_len(self, ppm4):
        assert len(ppm4.global_shared("A", 6)) == 6

    def test_fill_and_dtype(self, ppm4):
        A = ppm4.global_shared("A", 4, dtype=np.int32, fill=9)
        assert A[:].dtype == np.int32
        assert (A[:] == 9).all()


class TestNodeShared:
    def test_one_instance_per_node(self, ppm4):
        B = ppm4.node_shared("B", 3)
        B.instance(0)[:] = 1.0
        assert (B.instance(1) == 0.0).all()

    def test_instance_range_check(self, ppm4):
        B = ppm4.node_shared("B", 3)
        with pytest.raises(IndexError):
            B.instance(4)

    def test_plain_indexing_outside_phase_rejected(self, ppm4):
        B = ppm4.node_shared("B", 3)
        with pytest.raises(SharedAccessError):
            B[0]
        with pytest.raises(SharedAccessError):
            B[0] = 1.0

    def test_appears_in_node_memory(self, ppm4):
        ppm4.node_shared("B", 3)
        for node in ppm4.cluster:
            assert "nshared:B" in node.memory


class TestNodeSharedInPhase:
    def test_accumulate_combines_within_node(self):
        from repro.core import ppm_function, run_ppm

        @ppm_function
        def add(ctx, B):
            yield ctx.node_phase
            B.accumulate(np.array([0]), np.array([float(ctx.node_rank + 1)]))

        def main(ppm):
            B = ppm.node_shared("acc", 2)
            ppm.do(2, add, B)
            return [B.instance(i)[0] for i in range(ppm.node_count)]

        ppm4 = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
        _, vals = run_ppm(main, ppm4)
        assert vals == [3.0, 3.0]  # VPs 0 and 1 of each node: 1 + 2

    def test_accumulate_minimum(self):
        from repro.core import ppm_function, run_ppm

        @ppm_function
        def keep_min(ctx, B):
            yield ctx.node_phase
            B.accumulate(np.array([0]), np.array([float(10 - ctx.node_rank)]), op="minimum")

        def main(ppm):
            B = ppm.node_shared("mn", 1, fill=100.0)
            ppm.do(3, keep_min, B)
            return B.instance(0)[0]

        _, v = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=2)))
        assert v == 8.0  # min(100, 10, 9, 8)

    def test_accumulate_invalid_op(self):
        from repro.core import ppm_function, run_ppm
        from repro.core.errors import PpmError

        @ppm_function
        def bad(ctx, B):
            yield ctx.node_phase
            B.accumulate([0], [1.0], op="xor")

        def main(ppm):
            B = ppm.node_shared("bad", 1)
            ppm.do(1, bad, B)

        with pytest.raises(PpmError, match="unknown accumulate op"):
            run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=1)))

    def test_2d_node_shared_partial_row_write(self):
        from repro.core import ppm_function, run_ppm

        @ppm_function
        def writer(ctx, B):
            yield ctx.node_phase
            B[ctx.node_rank, 1] = 5.0

        def main(ppm):
            B = ppm.node_shared("mat", (2, 3))
            ppm.do(2, writer, B)
            return B.instance(0).copy()

        _, m = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=2)))
        assert m[0, 1] == 5.0 and m[1, 1] == 5.0
        assert m.sum() == 10.0


class TestAccessCacheLifetime:
    """Id-keyed access records live exactly as long as the index array
    they were built from — and never keep it alive themselves."""

    @staticmethod
    def _in_phase(fn):
        """Run ``fn(ctx, X)`` on one VP inside a global phase; returns
        the shared variable (kept alive by the caller)."""

        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            fn(ctx, X)

        def main(ppm):
            X = ppm.global_shared("x", 16)
            ppm.do(1, kernel, X)
            return X

        cluster = Cluster(mkconfig(n_nodes=1, cores_per_node=1))
        return run_ppm(main, cluster)[1]

    def test_repeated_index_array_hits_the_cache(self):
        cols = np.array([1, 5, 9])
        seen = []

        def body(ctx, X):
            for _ in range(2):
                X[cols]
                seen.append(X._access_cache[("a", id(cols))][0])

        self._in_phase(body)
        assert seen[0] is seen[1]
        assert seen[0].array.tolist() == [1, 5, 9]
        assert not np.may_share_memory(seen[0].array, cols)

    def test_entry_dies_with_its_index_array(self):
        sizes = []

        def body(ctx, X):
            rows = np.array([2, 3])
            ref = weakref.ref(rows)
            X[rows]
            sizes.append((len(X._access_cache), len(X._index_refs)))
            del rows
            assert ref() is None, "the cache entry pinned its index array"
            sizes.append((len(X._access_cache), len(X._index_refs)))

        self._in_phase(body)
        assert sizes == [(1, 1), (0, 0)]

    def test_close_forgets_entries_of_arrays_that_live_on(self):
        cols = np.array([4, 4, 7])

        def body(ctx, X):
            X[cols]
            X.accumulate(cols, 1.0)

        X = self._in_phase(body)
        assert not X._access_cache and not X._index_refs

    def test_phase_plans_hold_no_index_array_and_die_with_their_do(self):
        """A phase plan is serial numbers and small tuples: the plan of
        a committed phase keeps neither the index array it scattered
        through nor its memoised access record, the store is emptied when the
        ``do`` ends, and ``close()`` leaves nothing behind."""
        seen = []

        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            rows = np.array([2, 3, 5])
            X[rows] = 1.0
            X.accumulate(rows, 2.0)
            seen.append(weakref.ref(rows))
            del rows
            yield ctx.global_phase
            plans = ctx.runtime._phase_plans
            seen.append((len(plans), seen[0]() is None, len(X._access_cache)))

        with PpmProgram(Cluster(mkconfig(n_nodes=1, cores_per_node=1))) as ppm:
            X = ppm.global_shared("x", 16)
            ppm.do(1, kernel, X)
            # Inside phase 2: phase 1's plan is stored, its index array
            # and access record are already gone.
            assert seen[1] == (1, True, 0)
            assert not ppm.runtime._phase_plans
            assert ppm.runtime.stats_phase_plan_misses == 2
            assert X.committed[[2, 3, 5]].tolist() == [3.0, 3.0, 3.0]
        assert not ppm.runtime._phase_plans and not X._access_cache

    def test_three_bfs_runs_retain_nothing(self, monkeypatch):
        """The regression behind perfbench's bfs_scatter RSS finding:
        every level's frontier array used to stay reachable from a
        ``weakref.finalize`` registered on itself.  Every phase of a
        BFS is a phase-plan miss; no plan, signature or commit recipe
        may keep a level's frontier alive either."""
        born: list[weakref.ref] = []

        class NumpySpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def unique(a):
                out = np.unique(a)
                born.append(weakref.ref(out))
                return out

        # (the package attribute of the same name is the function)
        module = importlib.import_module("repro.apps.graph.ppm_bfs")
        monkeypatch.setattr(module, "np", NumpySpy())
        graph = hashed_graph(1500, degree=6, seed=3)
        want = serial_bfs(graph, 0)
        finalizers = []
        for _ in range(3):
            n_born = len(born)
            dist, _ = ppm_bfs(graph, 0, Cluster(mkconfig(n_nodes=4, cores_per_node=2)))
            assert np.array_equal(dist, want)
            assert len(born) > n_born  # the kernel went through the spy
            gc.collect()
            finalizers.append(len(weakref.finalize._registry))
            assert sum(r() is not None for r in born) == 0
        assert finalizers[0] == finalizers[1] == finalizers[2]
