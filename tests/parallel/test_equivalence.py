"""Bitwise process-vs-inline equivalence, property-swept.

The backend's headline contract: for any kernel, seed and worker
count, ``executor="process"`` commits bitwise-identical shared arrays
and reports the identical simulated time as the inline executor.
Hypothesis sweeps seeds and worker counts over the three Figure-1
workloads (CG, BFS, multigrid) and a synthetic kernel exercising every
recorded construct; Barnes-Hut, whose data-driven reads go into row
logs, runs at fixed worker counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate
from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs
from repro.apps.multigrid import build_mg_problem, ppm_mg_solve
from repro.config import franklin, manycore, testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.obs.events import PhaseTrace
from repro.parallel.shm import live_ppm_segments

# Process pools fork real processes; a handful of examples with
# generous deadlines beats hypothesis defaults here.
SWEEP = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def synthetic_kernel(ctx, A, B, seed):
    """Touches every recorded construct: global/node phases, latency
    phases, remote reads, writes, accumulates, reduce and scan."""
    rng = np.random.default_rng(seed * 1000 + ctx.global_rank)
    n = len(A)
    yield ctx.global_phase
    A[ctx.global_rank % n] = float(rng.integers(0, 100))
    h = ctx.reduce(float(rng.random()), "max")
    yield ctx.phase("global", latency_rounds=2)
    peer = float(A[(ctx.global_rank * 7 + 3) % n])
    s = ctx.scan(int(peer) % 5 + 1, "sum")
    ctx.work(10.0 * (ctx.global_rank % 4))
    yield ctx.node_phase
    B[ctx.node_rank % len(B)] = h.value + ctx.node_id
    yield ctx.global_phase
    rows = rng.integers(0, n, size=3)
    A.accumulate(rows, np.full(3, float(s.value)))
    yield ctx.global_phase


def synthetic_main(ppm, seed):
    A = ppm.global_shared("A", 24)
    B = ppm.node_shared("B", 6)
    ppm.do(6, synthetic_kernel, A, B, seed)
    insts = [B.instance(i).copy() for i in range(ppm.node_count)]
    return ppm.elapsed, A.committed.copy(), insts


class TestSyntheticEquivalence:
    @SWEEP
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 5))
    def test_bitwise_identical(self, seed, workers):
        cl = lambda: Cluster(mkconfig(n_nodes=3, cores_per_node=2))  # noqa: E731
        _, (t1, a1, b1) = run_ppm(synthetic_main, cl(), seed)
        _, (t2, a2, b2) = run_ppm(
            synthetic_main, cl(), seed, executor="process", workers=workers
        )
        assert t1 == t2
        np.testing.assert_array_equal(a1, a2)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x, y)
        assert live_ppm_segments() == []


class TestAppEquivalence:
    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_cg(self, seed, workers):
        prob = build_chimney_problem(6, 6, 4, seed=seed)
        cl = lambda: Cluster(manycore(n_nodes=4, cores_per_node=2))  # noqa: E731
        r1, t1 = ppm_cg_solve(prob, cl(), max_iters=8)
        r2, t2 = ppm_cg_solve(
            prob, cl(), max_iters=8, executor="process", workers=workers
        )
        assert t1 == t2
        np.testing.assert_array_equal(r1.x, r2.x)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_bfs(self, seed, workers):
        g = hashed_graph(128, degree=5, seed=seed)
        cl = lambda: Cluster(manycore(n_nodes=4, cores_per_node=2))  # noqa: E731
        d1, t1 = ppm_bfs(g, 0, cl())
        d2, t2 = ppm_bfs(g, 0, cl(), executor="process", workers=workers)
        assert t1 == t2
        np.testing.assert_array_equal(d1, d2)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_multigrid(self, seed, workers):
        prob = build_mg_problem(levels=3, seed=seed)
        cl = lambda: Cluster(mkconfig(n_nodes=2, cores_per_node=2))  # noqa: E731
        u1, t1 = ppm_mg_solve(prob, cl(), cycles=2)
        u2, t2 = ppm_mg_solve(
            prob, cl(), cycles=2, executor="process", workers=workers
        )
        assert t1 == t2
        np.testing.assert_array_equal(u1, u2)


def _bh_run(**engine):
    """One Barnes-Hut step, 256 particles on 8 nodes, traced: the
    final state, simulated time, wire totals and aggregation rows."""
    pos, vel, mass = make_plummer_cloud(256, seed=3)
    cluster = Cluster(franklin(n_nodes=8))
    trace = PhaseTrace()
    pos, vel, elapsed = ppm_bh_simulate(
        pos, vel, mass, cluster, steps=1, trace=trace, **engine
    )
    flushes = [tuple(e) for e in trace.by_kind("bundle_flushed")]
    return (
        pos.tobytes(), vel.tobytes(), elapsed,
        cluster.trace.total_messages(), cluster.trace.total_bytes(), flushes,
    )


class TestBarnesHutEquivalence:
    """The only app that reads through a shared index
    (``POSM.gather(PERM, starts, counts)``, the reads
    ``POSM[PERM[s:s + c]]`` of a walk round): each worker ships one
    row log per (node, variable), and the parent must bundle them into
    the inline run's traffic, access counts included."""

    @pytest.fixture(scope="class")
    def inline(self):
        return _bh_run()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bitwise_identical(self, inline, workers):
        got = _bh_run(executor="process", workers=workers)
        assert got[:5] == inline[:5]
        assert inline[5] and got[5] == inline[5]
        assert live_ppm_segments() == []
