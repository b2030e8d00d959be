"""Tests for the heart of PPM: phase snapshot/commit semantics.

Paper section 3.2: "Within every phase, any read access to a shared
variable always gets the value as it was [at] the beginning of the
current execution of the phase; and updates made to a shared variable
become effective only after the end of the current execution of the
phase."
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.apps.common import split_range
from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import (
    PhaseUsageError,
    PpmError,
    SharedAccessError,
    VpProgramError,
)
from repro.core.shared import NodeShared
from repro.machine import Cluster


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


class TestSnapshotReads:
    def test_reads_see_phase_start_values(self):
        """All VPs read neighbours' slots during the same phase in
        which those slots are overwritten: everyone must see the
        snapshot, regardless of execution order."""

        @ppm_function
        def shift(ctx, A, out):
            i = ctx.global_rank
            n = ctx.global_vp_count
            yield ctx.global_phase
            out[i] = A[(i + 1) % n]  # read neighbour
            A[i] = -1.0  # overwrite own slot

        def main(ppm):
            n = ppm.node_count * 2
            A = ppm.global_shared("A", n)
            out = ppm.global_shared("out", n)
            A[:] = np.arange(n, dtype=float)
            ppm.do(2, shift, A, out)
            return A.committed, out.committed

        _, (a, out) = run_ppm(main, _cluster())
        n = 4
        assert out.tolist() == [(i + 1) % n for i in range(n)]
        assert (a == -1.0).all()

    def test_own_writes_invisible_within_phase(self):
        """Strict paper semantics: even a VP's *own* write is not
        visible to its later reads in the same phase."""

        @ppm_function
        def probe(ctx, A, out):
            yield ctx.global_phase
            A[0] = 42.0
            out[0] = A[0]  # still the snapshot value

        def main(ppm):
            A = ppm.global_shared("A", 2)
            out = ppm.global_shared("out", 2)
            A[0] = 7.0
            ppm.do([1, 0], probe, A, out)
            return A.committed, out.committed

        _, (a, out) = run_ppm(main, _cluster())
        assert out[0] == 7.0  # snapshot
        assert a[0] == 42.0  # committed after the phase

    def test_writes_visible_next_phase(self):
        @ppm_function
        def two_phase(ctx, A, out):
            i = ctx.global_rank
            yield ctx.global_phase
            A[i] = float(i) * 2
            yield ctx.global_phase
            out[i] = A[i]

        def main(ppm):
            A = ppm.global_shared("A", 4)
            out = ppm.global_shared("out", 4)
            ppm.do(2, two_phase, A, out)
            return out.committed

        _, out = run_ppm(main, _cluster())
        assert out.tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_read_cannot_mutate_committed_store(self):
        # Snapshot reads are read-only views (mutation raises), so
        # nothing leaks into the committed store.
        @ppm_function
        def mutate_read(ctx, A, out):
            yield ctx.global_phase
            block = A[0:2]
            try:
                block[0] = 999.0
            except ValueError:
                pass  # read-only view refused the write
            yield ctx.global_phase
            out[0] = A[0]

        def main(ppm):
            A = ppm.global_shared("A", 4)
            out = ppm.global_shared("out", 1)
            A[:] = 1.0
            ppm.do([1, 0], mutate_read, A, out)
            return out.committed

        _, out = run_ppm(main, _cluster())
        assert out[0] == 1.0

    def test_write_buffers_copy_of_source_array(self):
        @ppm_function
        def writer(ctx, A):
            yield ctx.global_phase
            v = np.full(2, 5.0)
            A[0:2] = v
            v[:] = -1.0  # mutation after the buffered write must not leak

        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do([1, 0], writer, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert a[0] == 5.0 and a[1] == 5.0


class TestConflictResolution:
    def test_highest_global_rank_wins(self):
        @ppm_function
        def clash(ctx, A):
            yield ctx.global_phase
            A[0] = float(ctx.global_rank)

        def main(ppm):
            A = ppm.global_shared("A", 1)
            ppm.do(3, clash, A)
            return A.committed

        _, a = run_ppm(main, _cluster(n_nodes=2))
        assert a[0] == 5.0  # 6 VPs, ranks 0..5

    def test_resolution_independent_of_node_layout(self):
        """The same K VPs spread over different node counts must
        produce the same final value."""

        @ppm_function
        def clash(ctx, A):
            yield ctx.global_phase
            A[0] = float(ctx.global_rank * 10)

        def run(n_nodes, per_node):
            def main(ppm):
                A = ppm.global_shared("A", 1)
                ppm.do(per_node, clash, A)
                return A.committed[0]

            return run_ppm(main, _cluster(n_nodes=n_nodes))[1]

        assert run(1, 4) == run(2, 2) == run(4, 1) == 30.0

    def test_program_order_within_vp(self):
        @ppm_function
        def twice(ctx, A):
            yield ctx.global_phase
            A[0] = 1.0
            A[0] = 2.0  # later write of the same VP wins

        def main(ppm):
            A = ppm.global_shared("A", 1)
            ppm.do([1, 0], twice, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert a[0] == 2.0

    def test_accumulate_combines_instead_of_overwriting(self):
        @ppm_function
        def add(ctx, A):
            yield ctx.global_phase
            A.accumulate(np.array([0]), np.array([1.0]))

        def main(ppm):
            A = ppm.global_shared("A", 1)
            ppm.do(3, add, A)
            return A.committed

        _, a = run_ppm(main, _cluster(n_nodes=2))
        assert a[0] == 6.0  # six VPs each add 1


class TestNodePhases:
    def test_node_shared_visible_within_node_only(self):
        @ppm_function
        def local_sum(ctx, B, out):
            r = ctx.node_rank
            yield ctx.node_phase
            B[r] = float(ctx.node_id + 1)
            yield ctx.node_phase
            if r == 0:
                out[r] = B[0] + B[1]
            yield ctx.global_phase
            # publish each node's sum: write to a global slot
            # (node phases cannot write global shared)

        def main(ppm):
            B = ppm.node_shared("B", 2)
            out = ppm.node_shared("out", 2)
            ppm.do(2, local_sum, B, out)
            return [out.instance(i)[0] for i in range(ppm.node_count)]

        _, sums = run_ppm(main, _cluster())
        assert sums == [2.0, 4.0]

    def test_node_phase_cannot_write_global(self):
        @ppm_function
        def bad(ctx, A):
            yield ctx.node_phase
            A[0] = 1.0

        def main(ppm):
            A = ppm.global_shared("A", 2)
            ppm.do(1, bad, A)

        with pytest.raises(PpmError, match="node"):
            run_ppm(main, _cluster())

    def test_node_phase_can_read_global(self):
        @ppm_function
        def reader(ctx, A, B):
            yield ctx.node_phase
            B[0] = A[3]  # reading global shared is fine

        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 1)
            A[3] = 9.0
            ppm.do(1, reader, A, B)
            return [B.instance(i)[0] for i in range(2)]

        _, vals = run_ppm(main, _cluster())
        assert vals == [9.0, 9.0]

    def test_node_shared_writable_in_global_phase(self):
        """The paper's section 5 example writes a node-shared array
        inside a global phase."""

        @ppm_function
        def writer(ctx, B):
            yield ctx.global_phase
            B[ctx.node_rank] = float(ctx.node_rank)

        def main(ppm):
            B = ppm.node_shared("B", 2)
            ppm.do(2, writer, B)
            return B.instance(0).tolist()

        _, vals = run_ppm(main, _cluster())
        assert vals == [0.0, 1.0]

    def test_mixed_kinds_on_one_node_rejected(self):
        @ppm_function
        def diverge(ctx):
            if ctx.node_rank == 0:
                yield ctx.global_phase
            else:
                yield ctx.node_phase

        def main(ppm):
            ppm.do(2, diverge)

        with pytest.raises(PhaseUsageError, match="mixed phase kinds"):
            run_ppm(main, _cluster())

    def test_nodes_may_run_different_phase_counts(self):
        """Node 0 runs extra node phases while node 1 waits at the
        global phase (asynchronous modes, paper section 3.3)."""

        @ppm_function
        def busy(ctx, B, n_local):
            for _ in range(n_local):
                yield ctx.node_phase
                B[0] = B[0] + 1.0  # snapshot read + write each phase
            yield ctx.global_phase

        def main(ppm):
            import functools

            B = ppm.node_shared("B", 1)
            f0 = functools.partial(busy, n_local=3)
            f1 = functools.partial(busy, n_local=1)
            ppm.do(1, [f0, f1], B)
            return [B.instance(i)[0] for i in range(2)]

        _, vals = run_ppm(main, _cluster())
        assert vals == [3.0, 1.0]


class TestProgramStructure:
    def test_prologue_cannot_touch_shared(self):
        @ppm_function
        def bad(ctx, A):
            _ = A[0]  # before any phase declaration
            yield ctx.global_phase

        def main(ppm):
            A = ppm.global_shared("A", 2)
            ppm.do(1, bad, A)

        with pytest.raises(PpmError, match="prologue"):
            run_ppm(main, _cluster())

    def test_yield_of_non_phase_rejected(self):
        @ppm_function
        def bad(ctx):
            yield "not a phase"

        def main(ppm):
            ppm.do(1, bad)

        with pytest.raises(PhaseUsageError, match="phase declaration"):
            run_ppm(main, _cluster())

    def test_plain_function_is_single_global_phase(self):
        def kernel(ctx, A):
            A[ctx.global_rank] = 1.0

        def main(ppm):
            A = ppm.global_shared("A", 4)
            stats = ppm.do(2, kernel, A)
            assert stats.global_phases == 1
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 1.0).all()

    def test_plain_function_node_phase_option(self):
        def kernel(ctx, B):
            B[ctx.node_rank] = 1.0

        def main(ppm):
            B = ppm.node_shared("B", 2)
            stats = ppm.do(2, kernel, B, phase="node")
            assert stats.node_phases == 2  # one per node
            assert stats.global_phases == 0
            return True

        run_ppm(main, _cluster())

    def test_vp_exception_is_wrapped_with_location(self):
        @ppm_function
        def boom(ctx):
            yield ctx.global_phase
            if ctx.global_rank == 2:
                raise RuntimeError("kaboom")

        def main(ppm):
            ppm.do(2, boom)

        with pytest.raises(VpProgramError, match="node 1, VP node-rank 0"):
            run_ppm(main, _cluster())

    def test_zero_vps_on_a_node(self):
        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            A[ctx.global_rank] = 1.0

        def main(ppm):
            A = ppm.global_shared("A", 4)
            stats = ppm.do([3, 0], kernel, A)
            assert stats.vp_count == 3
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert a.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_vp_count_validation(self):
        def main(ppm):
            ppm.do(-1, lambda ctx: None)

        with pytest.raises(ValueError):
            run_ppm(main, _cluster())

    def test_per_node_count_length_validation(self):
        def main(ppm):
            ppm.do([1, 2, 3], lambda ctx: None)

        with pytest.raises(ValueError, match="length"):
            run_ppm(main, _cluster())

    def test_ranks_and_system_variables(self):
        seen = []

        @ppm_function
        def check(ctx):
            yield ctx.global_phase
            seen.append(
                (
                    ctx.node_id,
                    ctx.node_rank,
                    ctx.global_rank,
                    ctx.node_vp_count,
                    ctx.global_vp_count,
                    ctx.node_count,
                    ctx.cores_per_node,
                )
            )

        def main(ppm):
            ppm.do([2, 3], check)

        run_ppm(main, _cluster())
        assert len(seen) == 5
        assert [s[2] for s in seen] == [0, 1, 2, 3, 4]  # global ranks
        assert seen[0][:2] == (0, 0)
        assert seen[2][:2] == (1, 0)
        assert seen[2][3] == 3  # node 1 has 3 VPs
        assert all(s[4] == 5 and s[5] == 2 and s[6] == 2 for s in seen)


# ----------------------------------------------------------------------
# R1 outlives the phase: a read result keeps its phase-start values
# ----------------------------------------------------------------------
# Eighteen ways to keep a basic-index read alive across a ``yield``.
# Each kernel increments its chunk in phase 1 and copies the *kept*
# read to ``out`` in phase 2; the commit in between must not write the
# buffer the kept view aliases.  The process executor swaps a buffer
# only while a worker still references it (docs/PARALLEL.md, "When a
# segment swaps"), so the later kernels hold the read through objects
# that are not the read result itself — and one holds it across phases
# that never touch the variable.  The last keeps a private *copy*
# across two commits: nothing guards a buffer for it, so it is right
# only if no engine ever re-runs a phase body against later data.
# Module level: the process executor pickles kernels.

_N = 16


def _chunk(ctx, A):
    if isinstance(A, NodeShared):
        return split_range(len(A), ctx.node_vp_count)[ctx.node_rank]
    return split_range(len(A), ctx.global_vp_count)[ctx.global_rank]


def keep_plain_view(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi]
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_loop_target(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    for v in (A[lo:hi],):
        A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_tuple_unpack(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v, _ = A[lo:hi], 0
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_flip(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = np.flip(A[lo:hi])
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[::-1]


def keep_asanyarray(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = np.asanyarray(A[lo:hi])
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_split(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = np.split(A[lo:hi], 1)
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[0]


def keep_astype_nocopy(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi].astype(np.float64, copy=False)
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_list_of_tuple(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = list((A[lo:hi],))
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[0]


def keep_zip(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = tuple(zip((A[lo:hi],), (0,)))
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[0][0]


def keep_walrus_in_call(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    len(v := A[lo:hi])
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_derived_parent_dropped(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi]
    w = v[::1]
    del v
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = w


def keep_memoryview(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = memoryview(A[lo:hi])
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = np.asarray(v)


def keep_frombuffer(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = np.frombuffer(A[lo:hi])
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_strided(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = as_strided(A[lo:hi], shape=(hi - lo,), strides=A[lo:hi].strides)
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_window(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = sliding_window_view(A[lo:hi], 1)
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[:, 0]


def keep_iter(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = iter(A[lo:hi].reshape(1, -1))
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = next(v)


def keep_newaxis(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi][..., None]
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = v[:, 0]


def keep_across_idle_phases(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi]
    yield ctx.global_phase
    out[lo:hi] = 0.0  # the variable itself is left alone ...
    yield ctx.global_phase
    out[lo:hi] = -1.0  # ... for two whole phases
    yield ctx.global_phase
    A[lo:hi] = v + 1
    yield ctx.global_phase
    out[lo:hi] = v


def keep_private_copy(ctx, A, out):
    lo, hi = _chunk(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi].copy()  # private: no view, nothing guards the buffer
    A[lo:hi] = A[lo:hi] + 2
    yield ctx.global_phase
    A[lo:hi] = A[lo:hi] - 1  # a second commit between read and use
    yield ctx.global_phase
    out[lo:hi] = v


def _main_kept_reads(ppm, kernel):
    A = ppm.global_shared("A", _N)
    out = ppm.global_shared("out", _N)
    B = ppm.node_shared("B", _N)
    outB = ppm.node_shared("outB", _N)
    A[:] = np.arange(_N, dtype=float)
    for node in range(ppm.node_count):
        B.instance(node)[:] = np.arange(_N, dtype=float) + 100 * node
    ppm.do(2, kernel, A, out)
    ppm.do(2, kernel, B, outB)
    return (
        A.committed,
        out.committed,
        [B.instance(n).copy() for n in range(ppm.node_count)],
        [outB.instance(n).copy() for n in range(ppm.node_count)],
    )


def _supervised():
    # Worker 0 is SIGKILLed at the second round dispatch.  The chaos
    # plan counts dispatches, so every run needs its own.
    from repro.parallel import ProcessChaos, SupervisionPolicy

    chaos = ProcessChaos(seed=3, rounds=(1,), worker=0)
    return {
        "executor": "process",
        "workers": 2,
        "supervision": SupervisionPolicy(chaos=chaos),
    }


_ENGINES = {
    "inline": dict,
    "process": lambda: {"executor": "process", "workers": 2},
    "supervised": _supervised,
}


class TestReadsOutliveCommits:
    """SEMANTICS.md R1: a read result keeps its phase-start values for
    as long as it is referenced; the commit never writes a buffer a
    live view aliases — on global and node shared arrays, inline, in
    worker processes, and when a worker dies between the read and its
    use (whatever recovers the run may not rebuild a VP's private
    state from later data)."""

    @pytest.mark.parametrize("engine", list(_ENGINES))
    @pytest.mark.parametrize(
        "kernel",
        [
            keep_plain_view,
            keep_loop_target,
            keep_tuple_unpack,
            keep_flip,
            keep_asanyarray,
            keep_split,
            keep_astype_nocopy,
            keep_list_of_tuple,
            keep_zip,
            keep_walrus_in_call,
            keep_derived_parent_dropped,
            keep_memoryview,
            keep_frombuffer,
            keep_strided,
            keep_window,
            keep_iter,
            keep_newaxis,
            keep_across_idle_phases,
            keep_private_copy,
        ],
        ids=lambda k: k.__name__,
    )
    def test_kept_read_sees_phase_start_values(self, kernel, engine):
        _, (a, out, b, out_b) = run_ppm(
            _main_kept_reads, _cluster(), kernel, **_ENGINES[engine]()
        )
        start = np.arange(_N, dtype=float)
        np.testing.assert_array_equal(a, start + 1)
        np.testing.assert_array_equal(out, start)
        for node in range(2):
            np.testing.assert_array_equal(b[node], start + 100 * node + 1)
            np.testing.assert_array_equal(out_b[node], start + 100 * node)
