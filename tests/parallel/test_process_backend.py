"""Semantics of the ``executor="process"`` backend: configuration
validation (PPM5xx), kernel shipping, and feature coverage — multi-do
drivers, kwargs forwarding, node phases, collectives, load balancing
and the sanitizer.

Kernels live at module level because the backend ships them to worker
processes by pickling (locally-defined closures raise ``PPM501``; see
``test_unpicklable_kernel``).
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np
import pytest

from repro.apps.common import split_range
from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.core.errors import ParallelConfigError
from repro.core.runtime import PpmRuntime
from repro.core.vp import core_of
from repro.machine import Cluster
from repro.parallel.backend import ProcessBackend
from repro.parallel.pool import WorkerPool
from tests.reference import commit_oracle


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


# ----------------------------------------------------------------------
# Module-level kernels (picklable by qualified name)
# ----------------------------------------------------------------------

def writer_kernel(ctx, A, scale=1.0):
    yield ctx.global_phase
    A[ctx.global_rank] = ctx.global_rank * scale
    yield ctx.global_phase


def incr_kernel(ctx, A):
    yield ctx.global_phase
    v = float(A[ctx.global_rank])
    A[ctx.global_rank] = v + 1.0
    yield ctx.global_phase


def mixed_kernel(ctx, A, B):
    """Global + node phases, reduce, scan, accumulate, remote reads."""
    n = ctx.global_vp_count
    yield ctx.global_phase
    A[ctx.global_rank] = float(ctx.global_rank)
    h = ctx.reduce(ctx.global_rank + 1, "sum")
    yield ctx.global_phase
    total = h.value
    # Remote read: every VP reads the element its successor wrote.
    peer = float(A[(ctx.global_rank + 1) % n])
    s = ctx.scan(int(peer) + 1, "sum")
    yield ctx.node_phase
    B[ctx.node_rank % len(B)] = total + ctx.node_rank
    yield ctx.global_phase
    A.accumulate(np.array([ctx.global_rank % 3]), np.array([s.value * 0.5]))
    yield ctx.global_phase


def lpt_kernel(ctx, C, N):
    """Rank-dependent costs, so LPT really moves VPs off their static
    cores; every VP records the core it ran each phase on."""
    cost = 1e5 * (1 + (7 * ctx.global_rank) % 5)
    for step in range(3):
        yield ctx.global_phase
        ctx.work(cost)
        C[step, ctx.global_rank] = ctx.core_id
        yield ctx.node_phase
        ctx.work(cost * (1 + ctx.node_rank % 2))
        N[step, ctx.node_rank] = ctx.core_id


def main_lpt(ppm):
    # 5 + 7 VPs: node 0 is split between the parent and a worker under
    # workers=3, node 1 under workers=2 (and between two workers).
    C = ppm.global_shared("C", (3, 12))
    N = ppm.node_shared("N", (3, 7))
    C[:] = -1.0
    ppm.do([5, 7], lpt_kernel, C, N)
    return C.committed.copy(), N.instance(0).copy(), N.instance(1).copy()


def conflict_kernel(ctx, A):
    yield ctx.global_phase
    A[0] = float(ctx.global_rank)  # every rank writes element 0
    yield ctx.global_phase


def near_miss_kernel(ctx, S, G, H, N):
    """Rounds that differ from their predecessor in exactly one thing
    a phase plan could overlook (rounds 0/1 are identical: the one
    legitimate repeat).  Written in the chunk algebra the verifier
    certifies, so the global rounds are *held*: the parent sees their
    access records but never their operations, and the worker commits
    them through the plan it keeps per phase shape — the later rounds
    write through index arrays, whose commit is a compiled last-writer
    run a wrongly shared plan would get wrong."""
    node_lo, node_hi = G.local_range(ctx.node_id)
    lo, hi = split_range(node_hi - node_lo, ctx.node_vp_count)[ctx.node_rank]
    lo, hi = node_lo + lo, node_lo + hi
    far = (lo + len(G) // 2) % len(G)
    a, b = split_range(len(N), ctx.node_vp_count)[ctx.node_rank]
    rows = np.arange(lo, hi)
    head = rows[:1]
    yield ctx.global_phase
    G[lo:hi] = S[lo:hi] + 1.0
    yield ctx.global_phase
    G[lo:hi] = S[lo:hi] + 2.0  # the repeat
    yield ctx.global_phase
    G[lo:hi] = S[far : far + hi - lo] + 3.0  # as many reads, remote rows
    yield ctx.global_phase
    H[lo:hi] = S[far : far + hi - lo] + 4.0  # same slice, other variable
    yield ctx.global_phase
    H[lo:hi] = S[far : far + hi - lo] + 5.0
    N[a:b] = 1.0  # node-shared rows join
    yield ctx.global_phase
    H[lo:hi] = S[far : far + hi - lo] + 6.0
    N[a:b, 0] = 2.0  # ... and shrink to one column
    yield ctx.global_phase
    G[rows] = S[lo:hi] + 7.0
    G[head] = -7.0
    yield ctx.global_phase
    H[rows] = S[lo:hi] + 8.0  # same index arrays, other variable
    H[head] = -8.0
    yield ctx.global_phase
    H[head] = -9.0  # same rows, the two writers swapped
    H[rows] = S[lo:hi] + 9.0
    yield ctx.global_phase
    G.accumulate(rows, S[lo:hi], "add")
    yield ctx.global_phase
    G.accumulate(rows, S[lo:hi], "maximum")  # same rows, other operator


def near_miss_reference():
    """``main_near_miss`` by ``tests/reference.py``: every phase commits
    each target's operations VP by VP, in program order."""
    S = np.arange(32.0)
    vps = []  # (node, own rows, remote rows, own index array, N rows)
    for lo in range(0, 32, 8):
        far = (lo + 16) % 32
        a = lo % 16 // 4
        vps.append(
            (lo // 16, slice(lo, lo + 8), slice(far, far + 8),
             np.arange(lo, lo + 8), slice(a, a + 2))
        )
    phases = [  # per VP: {target: [(kind, rows, values, op), ...]}
        lambda n, own, far, rows, nr: {"G": [("write", own, S[own] + 1.0, None)]},
        lambda n, own, far, rows, nr: {"G": [("write", own, S[own] + 2.0, None)]},
        lambda n, own, far, rows, nr: {"G": [("write", own, S[far] + 3.0, None)]},
        lambda n, own, far, rows, nr: {"H": [("write", own, S[far] + 4.0, None)]},
        lambda n, own, far, rows, nr: {
            "H": [("write", own, S[far] + 5.0, None)],
            ("N", n): [("write", nr, 1.0, None)],
        },
        lambda n, own, far, rows, nr: {
            "H": [("write", own, S[far] + 6.0, None)],
            ("N", n): [("write", (nr, 0), 2.0, None)],
        },
        lambda n, own, far, rows, nr: {
            "G": [("write", rows, S[own] + 7.0, None), ("write", rows[:1], -7.0, None)]
        },
        lambda n, own, far, rows, nr: {
            "H": [("write", rows, S[own] + 8.0, None), ("write", rows[:1], -8.0, None)]
        },
        lambda n, own, far, rows, nr: {
            "H": [("write", rows[:1], -9.0, None), ("write", rows, S[own] + 9.0, None)]
        },
        lambda n, own, far, rows, nr: {"G": [("accumulate", rows, S[own], "add")]},
        lambda n, own, far, rows, nr: {"G": [("accumulate", rows, S[own], "maximum")]},
    ]
    state = {
        "G": np.zeros(32), "H": np.zeros(32),
        ("N", 0): np.zeros((4, 2)), ("N", 1): np.zeros((4, 2)),
    }
    for phase in phases:
        per_vp = [phase(*vp) for vp in vps]
        for key in state:
            state[key] = commit_oracle(state[key], [ops.get(key, []) for ops in per_vp])
    return state["G"], state["H"], state[("N", 0)], state[("N", 1)]


def main_near_miss(ppm):
    S = ppm.global_shared("S", 32)
    G = ppm.global_shared("G", 32)
    H = ppm.global_shared("H", 32)
    N = ppm.node_shared("N", (4, 2))
    S[:] = np.arange(32.0)
    ppm.do(2, near_miss_kernel, S, G, H, N)
    return G.committed, H.committed, N.instance(0).copy(), N.instance(1).copy()


def worker_log_kernel(ctx, A, B):
    """Three rounds of one shape, except that the upper half of the
    ranks — the forked worker's shard under ``workers=2`` — reads
    through a view of an index array, which only a row log records."""
    idx = np.arange(len(A))
    for step in range(3):
        yield ctx.global_phase
        if ctx.global_rank >= ctx.global_vp_count // 2:
            v = A[idx[1:3]].sum()
        else:
            v = A[1:3].sum()
        B[ctx.global_rank] = v + step


def main_worker_log(ppm):
    A = ppm.global_shared("A", 8)
    B = ppm.global_shared("B", 8)
    A[:] = np.arange(8.0)
    ppm.do(4, worker_log_kernel, A, B)
    return B.committed.copy()


def main_mixed(ppm):
    A = ppm.global_shared("A", 16)
    B = ppm.node_shared("B", 8)
    ppm.do(8, mixed_kernel, A, B)
    return A.committed.copy(), B.instance(0).copy(), B.instance(1).copy()


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------

class TestConfigErrors:
    def test_unknown_executor_ppm502(self):
        with pytest.raises(ParallelConfigError) as ei:
            run_ppm(main_mixed, _cluster(), executor="threads")
        assert ei.value.code == "PPM502"

    @pytest.mark.parametrize("workers", [0, -3, 1.5, "four"])
    def test_bad_workers_ppm502(self, workers):
        with pytest.raises(ParallelConfigError) as ei:
            run_ppm(main_mixed, _cluster(), executor="process", workers=workers)
        assert ei.value.code == "PPM502"

    def test_workers_ignored_without_process_executor(self):
        # An explicit workers= is validated even for inline runs.
        with pytest.raises(ParallelConfigError):
            run_ppm(main_mixed, _cluster(), workers=0)

    def test_supervision_requires_process_ppm602(self):
        from repro.resilience import FaultPlan, ResiliencePolicy

        kill = ResiliencePolicy(faults=FaultPlan().kill_worker(rounds=(1,)))
        with pytest.raises(ParallelConfigError) as ei:
            run_ppm(main_mixed, _cluster(), resilience=kill)
        assert ei.value.code == "PPM602"

    def test_resilience_now_supported(self):
        # Lifted restriction (formerly PPM503): the resilience
        # subsystem composes with the process executor — simulated
        # faults and checkpoints run parent-side, and recovery
        # re-executes the driver, which re-ships the kernel to a fresh
        # worker pool.
        from repro.resilience import FaultPlan, ResiliencePolicy

        policy = ResiliencePolicy(
            faults=FaultPlan(seed=5).crash(node=1, phase=2), checkpoint_every=2
        )
        _, r1 = run_ppm(main_mixed, _cluster(), resilience=policy)
        _, r2 = run_ppm(
            main_mixed, _cluster(), resilience=policy,
            executor="process", workers=2,
        )
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_sanitize_auto_now_supported(self):
        # Lifted restriction: workers rebuild the conflict-freedom
        # certificate locally, so sanitize="auto" runs under process.
        _, r1 = run_ppm(main_mixed, _cluster(), sanitize="auto")
        _, r2 = run_ppm(
            main_mixed, _cluster(), sanitize="auto",
            executor="process", workers=2,
        )
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_unpicklable_kernel_ppm501(self):
        lock = threading.Lock()

        def main(ppm):
            def vp(ctx):  # local closure: not picklable
                _ = lock
                yield ctx.global_phase

            ppm.do(4, vp)

        with pytest.raises(ParallelConfigError) as ei:
            run_ppm(main, _cluster(), executor="process", workers=2)
        assert ei.value.code == "PPM501"


# ----------------------------------------------------------------------
# Feature coverage vs the inline executor
# ----------------------------------------------------------------------

def main_multi_do(ppm):
    A = ppm.global_shared("A", 32)
    ppm.do(16, writer_kernel, A, scale=2.0)  # 2 nodes x 16 VPs
    ppm.do(16, incr_kernel, A)
    return A.committed.copy()


class TestSemantics:
    def test_mixed_kernel_matches_inline(self):
        ppm_inline, r_inline = run_ppm(main_mixed, _cluster())
        ppm_proc, r_proc = run_ppm(
            main_mixed, _cluster(), executor="process", workers=3
        )
        for a, b in zip(r_inline, r_proc):
            np.testing.assert_array_equal(a, b)
        assert ppm_inline.elapsed == ppm_proc.elapsed

    @pytest.mark.parametrize("zero_merge", [True, False])
    def test_parent_side_phase_plans_tell_near_misses_apart(
        self, zero_merge, ship_records, monkeypatch
    ):
        """The parent's recorder is filled from its own shard and the
        worker's reports, and a held round commits through the worker's
        own plan; both must hit on the one true repeat and on nothing
        that merely has the same counts (held rounds show the parent
        only its own shard's operation stream) — checked with and
        without the parent re-reading every row a worker committed."""
        ppm1, r1 = run_ppm(main_near_miss, _cluster())
        for a, b in zip(r1, near_miss_reference()):
            np.testing.assert_array_equal(a, b)
        for verify in ("", "1") if zero_merge else ("",):
            monkeypatch.setenv("PPM_ZERO_MERGE_VERIFY", verify)
            with contextlib.nullcontext() if zero_merge else ship_records():
                ppm2, r2 = run_ppm(
                    main_near_miss, _cluster(), trace=True,
                    executor="process", workers=2,
                )
            for a, b in zip(r1, r2):
                np.testing.assert_array_equal(a, b)
            assert ppm1.elapsed == ppm2.elapsed
            assert [p.node_timings for p in ppm1.profile] == [
                p.node_timings for p in ppm2.profile
            ]
            # The parent steps ranks 0-1 itself, so even a held
            # accumulate shows it an operator (its own shard's): the
            # last round does not repeat its predecessor.
            rt1, rt2 = ppm1.runtime, ppm2.runtime
            assert (rt1.stats_phase_plan_hits, rt1.stats_phase_plan_misses) == (1, 10)
            assert (rt2.stats_phase_plan_hits, rt2.stats_phase_plan_misses) == (1, 10)
            if zero_merge:
                assert ppm2.report().zero_merge.commits >= 9  # held rounds

    @pytest.mark.parametrize("zero_merge", [True, False])
    def test_a_worker_row_log_keeps_no_plan(
        self, zero_merge, ship_records, monkeypatch
    ):
        """Only the worker's shard reads through a view index, so only
        its recorder holds a row log: its reports carry no plan id, the
        parent caches nothing for them and builds no signature — no
        plan is kept on either side, as inline keeps none."""
        ppm1, r1 = run_ppm(main_worker_log, _cluster())
        kept, cached, plan_ids = [], [], []
        run_phase, end_do = PpmRuntime._run_phase, ProcessBackend.end_do
        gather = WorkerPool.gather

        def running(self, *args):
            run_phase(self, *args)
            kept.append(len(self._phase_plans))

        def ending(self):
            cached.extend(len(c) for c in self._rec_cache)
            end_do(self)

        def gathering(self):
            replies = gather(self)
            plan_ids.extend(
                report.get("plan")
                for rep in replies
                if isinstance(rep, dict) and "groups" in rep
                for _node_key, report, _flags in rep["groups"]
            )
            return replies

        monkeypatch.setattr(PpmRuntime, "_run_phase", running)
        monkeypatch.setattr(ProcessBackend, "end_do", ending)
        monkeypatch.setattr(WorkerPool, "gather", gathering)
        with contextlib.nullcontext() if zero_merge else ship_records():
            ppm2, r2 = run_ppm(
                main_worker_log, _cluster(), executor="process", workers=2
            )
        np.testing.assert_array_equal(r1, r2)
        assert ppm1.elapsed == ppm2.elapsed
        rt1, rt2 = ppm1.runtime, ppm2.runtime
        assert (rt1.stats_phase_plan_hits, rt1.stats_phase_plan_misses) == (0, 3)
        assert (rt2.stats_phase_plan_hits, rt2.stats_phase_plan_misses) == (0, 3)
        assert kept == [0, 0, 0]
        assert plan_ids == [None, None, None]
        assert cached == [0]

    def test_multi_do_reuses_pool(self):
        ppm1, r1 = run_ppm(main_multi_do, _cluster())
        ppm2, r2 = run_ppm(
            main_multi_do, _cluster(), executor="process", workers=2
        )
        np.testing.assert_array_equal(r1, r2)
        assert ppm1.elapsed == ppm2.elapsed

    def test_more_workers_than_vps(self):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, writer_kernel, A)
            return A.committed.copy()

        _, r1 = run_ppm(main, _cluster())
        _, r2 = run_ppm(main, _cluster(), executor="process", workers=6)
        np.testing.assert_array_equal(r1, r2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_counts_the_parent(self, workers):
        """``workers=N`` is N processes: the parent and N−1 forks."""
        import multiprocessing

        children = []

        def main(ppm):
            out = main_mixed(ppm)
            children.append(len(multiprocessing.active_children()))
            return out

        _, r1 = run_ppm(main_mixed, _cluster())
        _, r2 = run_ppm(main, _cluster(), executor="process", workers=workers)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)
        assert children == [workers - 1]

    def test_single_worker(self):
        _, r1 = run_ppm(main_mixed, _cluster())
        _, r2 = run_ppm(main_mixed, _cluster(), executor="process", workers=1)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_load_balancing_matches_inline(self):
        """Only the parent packs cores (LPT), for its shard and the
        workers' alike — a worker's runtime, which sees part of a split
        node, never does — so VP code observes the inline core ids."""

        def cl(cores=2):
            return _cluster(cores=cores, load_balancing=True)

        ppm1, r1 = run_ppm(main_mixed, cl())
        ppm2, r2 = run_ppm(main_mixed, cl(), executor="process", workers=3)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)
        assert ppm1.elapsed == ppm2.elapsed

        ppm1, r1 = run_ppm(main_lpt, cl(cores=3))
        # LPT moved VPs off the static contiguous chunks in every phase
        # that has a cost history: global (rows of C after the first)
        # and node (rows of N).
        static = np.array([core_of(r, k, 3) for k in (5, 7) for r in range(k)])
        C, N0, N1 = r1
        assert (C[1:] != static).any(axis=1).all()
        assert (np.hstack([N0[:, :5], N1]) != static).any(axis=1).all()
        for workers in (2, 3):
            ppm2, r2 = run_ppm(
                main_lpt, cl(cores=3), executor="process", workers=workers
            )
            for a, b in zip(r1, r2):
                np.testing.assert_array_equal(a, b)
            assert ppm1.elapsed == ppm2.elapsed

    def test_sanitizer_warn_matches_inline(self):
        def main(ppm):
            A = ppm.global_shared("A", 8)
            ppm.do(4, conflict_kernel, A)
            return [str(d) for d in ppm.diagnostics]

        _, d_inline = run_ppm(main, _cluster(), sanitize="warn")
        _, d_proc = run_ppm(
            main, _cluster(), sanitize="warn", executor="process", workers=2
        )
        assert d_inline and d_inline == d_proc

    def test_default_workers_clamped(self):
        from repro.parallel.backend import default_workers

        assert 2 <= default_workers() <= 8

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity mask here"
    )
    def test_default_workers_counts_the_cores_it_may_use(self, monkeypatch):
        from repro.parallel.backend import default_workers

        allowed = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the host's, not ours
        assert default_workers() == max(2, min(8, len(allowed)))
        try:
            os.sched_setaffinity(0, {min(allowed)})
            assert default_workers() == 2
        finally:
            os.sched_setaffinity(0, allowed)
