"""Failure injection: crashing VP code must not corrupt shared state.

The commit protocol applies buffered writes only after every VP of the
phase has finished its body, so an exception anywhere in a phase aborts
the whole phase without partial effects — previously committed phases
stay intact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import VpProgramError
from repro.machine import Cluster


def _cluster(**kw):
    return Cluster(mkconfig(n_nodes=2, cores_per_node=2, **kw))


@ppm_function
def prologue_crash_kernel(ctx, bad):
    # Module level: the process executor ships kernels by pickling.
    if ctx.global_rank == bad:
        raise KeyError("prologue fault")
    yield ctx.global_phase


class TestAbortedPhase:
    def test_no_partial_commit_on_crash(self):
        """VP 0 writes then VP 3 crashes in the same phase: the write
        must NOT be visible afterwards."""

        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            A[ctx.global_rank] = 99.0
            if ctx.global_rank == 3:
                raise RuntimeError("injected fault")

        def main(ppm):
            A = ppm.global_shared("A", 4)
            A[:] = -1.0
            with pytest.raises(VpProgramError, match="injected fault"):
                ppm.do(2, kernel, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == -1.0).all(), "aborted phase must not commit any write"

    def test_earlier_phases_survive_later_crash(self):
        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            A[ctx.global_rank] = 1.0
            yield ctx.global_phase
            if ctx.global_rank == 0:
                raise ValueError("late fault")

        def main(ppm):
            A = ppm.global_shared("A", 4)
            with pytest.raises(VpProgramError, match="late fault"):
                ppm.do(2, kernel, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 1.0).all(), "phase 1 committed before the phase-2 fault"

    def test_crash_in_prologue(self, failing_shard, no_residue):
        """A prologue raising on either side of the shard boundary
        fails the do as inline does, and the runtime stays usable."""
        opts, bad = failing_shard

        def main(ppm):
            with pytest.raises(VpProgramError, match="prologue fault") as ei:
                ppm.do(3, prologue_crash_kernel, bad)
            ppm.do(3, prologue_crash_kernel, -1)
            return type(ei.value), str(ei.value)

        _, inline = run_ppm(main, _cluster())
        _, got = run_ppm(main, _cluster(), **opts)
        assert got == inline
        no_residue()

    def test_error_carries_location(self):
        @ppm_function
        def kernel(ctx):
            yield ctx.global_phase
            yield ctx.global_phase
            if ctx.node_id == 1 and ctx.node_rank == 1:
                raise RuntimeError("where am I")

        def main(ppm):
            ppm.do(2, kernel)

        with pytest.raises(VpProgramError) as exc_info:
            run_ppm(main, _cluster())
        err = exc_info.value
        assert err.node == 1
        assert err.vp_rank == 1
        assert err.phase_index == 2

    def test_runtime_reusable_after_crash(self):
        """A failed `do` must leave the runtime able to run another."""

        @ppm_function
        def bad(ctx):
            yield ctx.global_phase
            raise RuntimeError("boom")

        def good(ctx, A):
            A[ctx.global_rank] = 5.0

        def main(ppm):
            A = ppm.global_shared("A", 4)
            with pytest.raises(VpProgramError):
                ppm.do(1, bad)
            ppm.do(2, good, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 5.0).all()


class TestDegenerateConfigs:
    def test_zero_cost_machine_still_correct(self):
        """All cost knobs zeroed: values must be unaffected (timing and
        semantics are fully decoupled)."""
        cfg = mkconfig(
            n_nodes=2,
            cores_per_node=2,
            flop_time=0.0,
            net_alpha=0.0,
            net_beta=0.0,
            intra_alpha=0.0,
            intra_beta=0.0,
            mpi_msg_overhead=0.0,
            ppm_access_call_overhead=0.0,
            ppm_access_per_element=0.0,
            ppm_node_access_per_element=0.0,
            ppm_commit_per_element=0.0,
            barrier_alpha=0.0,
        )

        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            A[ctx.global_rank] = float(ctx.global_rank)
            ctx.work(1e6)

        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, kernel, A)
            return A.committed, ppm.elapsed

        _, (a, elapsed) = run_ppm(main, Cluster(cfg))
        assert a.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert elapsed == 0.0

    def test_single_vp_whole_cluster(self):
        @ppm_function
        def lonely(ctx, A):
            yield ctx.global_phase
            A[:] = 7.0

        def main(ppm):
            A = ppm.global_shared("A", 6)
            ppm.do([1, 0], lonely, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 7.0).all()

    def test_do_with_zero_vps_everywhere(self):
        def main(ppm):
            stats = ppm.do(0, lambda ctx: None)
            return stats

        _, stats = run_ppm(main, _cluster())
        assert stats.vp_count == 0
        assert stats.global_phases == 0
