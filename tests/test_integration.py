"""End-to-end integration tests across the full stack.

These exercise multi-module paths: PPM programs with mixed phase
kinds, several shared arrays and collectives in one `do`; MPI programs
combining pt2pt with collectives; timing consistency between the two
stacks on one machine model; trace accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import franklin, testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster
from repro.mpi import run_mpi


class TestPpmPipeline:
    def test_stencil_sweep_pipeline(self):
        """A multi-iteration Jacobi-style sweep: every element averages
        its neighbours each phase.  Verifies snapshot semantics and
        halo fetching across many phases against numpy."""
        n, iters = 64, 5

        @ppm_function
        def jacobi(ctx, A, B):
            node_lo, node_hi = A.local_range(ctx.node_id)
            k = ctx.node_vp_count
            size = node_hi - node_lo
            lo = node_lo + (ctx.node_rank * size) // k
            hi = node_lo + ((ctx.node_rank + 1) * size) // k
            src, dst = A, B
            for _ in range(iters):
                yield ctx.global_phase
                # Read the halo window [lo-1, hi+1) clipped to bounds;
                # boundary elements are copied through unchanged.
                wlo, whi = max(lo - 1, 0), min(hi + 1, n)
                window = src[wlo:whi]
                new = window.copy()
                new[1:-1] = (window[:-2] + window[2:]) / 2.0
                dst[lo:hi] = new[lo - wlo : (hi - wlo)]
                ctx.work(3 * (hi - lo))
                src, dst = dst, src

        def main(ppm):
            A = ppm.global_shared("jacA", n)
            B = ppm.global_shared("jacB", n)
            init = np.sin(np.linspace(0, 3, n))
            A[:] = init
            ppm.do(2, jacobi, A, B)
            return (A.committed, B.committed, init)

        _, (a, b, init) = run_ppm(main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)))
        expected = init.copy()
        for _ in range(5):
            new = expected.copy()
            new[1:-1] = (expected[:-2] + expected[2:]) / 2.0
            expected = new
        final = b if 5 % 2 == 1 else a
        assert np.allclose(final, expected, atol=1e-12)

    def test_multiple_dos_share_state(self):
        """Several ppm.do calls against the same shared arrays: data
        committed by the first is visible to the second."""

        def fill(ctx, A):
            A[ctx.global_rank] = float(ctx.global_rank + 1)

        def square(ctx, A, B):
            B[ctx.global_rank] = A[ctx.global_rank] ** 2

        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.global_shared("B", 4)
            ppm.do(2, fill, A)
            ppm.do(2, square, A, B)
            return B.committed

        _, b = run_ppm(main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)))
        assert b.tolist() == [1.0, 4.0, 9.0, 16.0]

    def test_mixed_node_and_global_phases_pipeline(self):
        """Node-local pre-aggregation followed by global combination —
        the two-level pattern the model is designed for."""

        @ppm_function
        def two_level(ctx, data, partial, total):
            r = ctx.node_rank
            yield ctx.node_phase
            partial.accumulate(np.array([0]), np.array([data[r]]))
            yield ctx.global_phase
            if r == 0:
                total.accumulate(np.array([0]), np.array([partial[0]]))

        def main(ppm):
            k = 3
            data = ppm.node_shared("data", k)
            partial = ppm.node_shared("partial", 1)
            total = ppm.global_shared("total", 1)
            for node in range(ppm.node_count):
                data.instance(node)[:] = np.arange(k) + 10 * node
            ppm.do(k, two_level, data, partial, total)
            return total.committed[0]

        _, total = run_ppm(main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)))
        # node 0: 0+1+2 = 3; node 1: 10+11+12 = 33.
        assert total == 36.0

    def test_trace_accounts_phases(self):
        @ppm_function
        def kernel(ctx, A):
            yield ctx.node_phase
            yield ctx.global_phase
            A[(ctx.global_rank + 2) % 4] = 1.0  # the other node's rows

        def main(ppm):
            A = ppm.global_shared("A", 4)
            stats = ppm.do(2, kernel, A)
            assert stats.node_phases == 2  # one per node
            assert stats.global_phases == 1
            return None

        cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
        ppm, _ = run_ppm(main, cluster)
        summary = ppm.summary()
        assert (summary.global_phases, summary.node_phases) == (1, 2)
        assert (summary.messages, summary.nbytes) == (2, 64)
        trace = cluster.trace
        counts = lambda kind: (trace.total_messages(kind), trace.total_bytes(kind))
        assert counts("ppm_node_phase") == (0, 0)
        # One bundle from each node to the other carries the global phase.
        assert counts("ppm_global_phase") == (2, 64)
        assert counts(None) == (2, 64)


class TestMpiPipeline:
    def test_pipeline_with_pt2pt_and_collectives(self):
        """Token ring plus allreduce — ordering across mixed ops."""

        def prog(comm):
            token = comm.rank
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            for _ in range(comm.size):
                comm.send(token, dest=nxt, tag=1)
                token = comm.recv(source=prev, tag=1)
            total = comm.allreduce(token)
            return total

        cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
        res = run_mpi(prog, cluster)
        # After size hops every token returns home; sum of ranks = 6.
        assert all(r == 6 for r in res.results)

    def test_simulated_times_grow_with_cluster_distance(self):
        """The same program on a bigger machine pays more network."""

        def prog(comm):
            for _ in range(10):
                comm.allreduce(np.zeros(512))
            return comm.now

        t_small = run_mpi(prog, Cluster(franklin(n_nodes=2))).elapsed
        t_big = run_mpi(prog, Cluster(franklin(n_nodes=32))).elapsed
        assert t_big > t_small


class TestCrossStackConsistency:
    def test_ppm_and_mpi_share_flop_model(self):
        """Pure-compute programs cost identical simulated time on
        either stack — the cost model is shared."""
        flops = 5_000_000

        def mpi_prog(comm):
            comm.work(flops)
            return comm.now

        def ppm_kernel(ctx):
            ctx.work(flops)

        def ppm_main(ppm):
            ppm.do(1, ppm_kernel, phase="node")
            return None

        cluster_m = Cluster(mkconfig(n_nodes=1, cores_per_node=1))
        t_mpi = run_mpi(mpi_prog, cluster_m).elapsed
        cluster_p = Cluster(mkconfig(n_nodes=1, cores_per_node=1))
        ppm, _ = run_ppm(ppm_main, cluster_p)
        # PPM adds only the node-phase barrier around the same work.
        assert ppm.elapsed == pytest.approx(t_mpi, rel=0.05)
