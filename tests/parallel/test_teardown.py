"""Teardown and fault paths of the process backend: crashing kernels,
worker death, unserialisable replies and interrupts must all propagate
a useful error AND leave no shared-memory segments behind (the
``PPM.close()`` contract; see docs/PARALLEL.md).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.core.errors import (
    ParallelConfigError,
    ParallelExecutionError,
    VpProgramError,
)
from repro.machine import Cluster
from repro.parallel.shm import live_ppm_segments


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


#: The failing VP of the kernels below, once in each kind of shard: 8
#: VPs under workers=2 put ranks 0-3 in the parent (0-1 under
#: workers=3), rank 6 in a forked worker.
BAD_RANKS = {"parent shard": 1, "forked shard": 6}


# -- module-level kernels (shipped to workers by pickle) ---------------

def crashing_kernel(ctx, A, bad):
    yield ctx.global_phase
    if ctx.global_rank == bad:
        raise RuntimeError(f"kaboom rank {bad}")
    A[ctx.global_rank] = 1.0
    yield ctx.global_phase


def interrupting_kernel(ctx, A, bad):
    yield ctx.global_phase
    if ctx.global_rank == bad:
        raise KeyboardInterrupt
    yield ctx.global_phase


def dying_kernel(ctx, A):
    yield ctx.global_phase
    # The last rank is a forked worker's at any pool size: dying in
    # the parent would end the test run.
    if ctx.global_rank == ctx.global_vp_count - 1:
        os._exit(17)  # hard kill: no exception ships back
    yield ctx.global_phase


def unpicklable_reduce_kernel(ctx, A):
    yield ctx.global_phase
    # A thread lock cannot pickle, so the worker's round reply (which
    # carries collective contributions) cannot serialise.
    ctx.reduce(threading.Lock(), "sum")
    yield ctx.global_phase


def main_with(kernel, *args):
    def main(ppm):
        A = ppm.global_shared("A", 16)
        ppm.do(8, kernel, A, *args)
        return A.committed.copy()

    return main


def main_recovering(kernel, bad):
    """Catches the failed ``do`` in the driver, then runs a clean one
    on the same pool: it completes only if every reply of the failed
    round was drained."""

    def main(ppm):
        A = ppm.global_shared("A", 16)
        with pytest.raises((VpProgramError, KeyboardInterrupt)):
            ppm.do(8, kernel, A, bad)
        ppm.do(8, clean_kernel, A)
        return A.committed.copy()

    return main


class TestCrashTeardown:
    def test_vp_error_propagates_and_no_leak(self):
        for bad in BAD_RANKS.values():
            with pytest.raises(VpProgramError) as ei:
                run_ppm(
                    main_with(crashing_kernel, bad),
                    _cluster(),
                    executor="process",
                    workers=2,
                )
            assert f"kaboom rank {bad}" in str(ei.value)
            assert live_ppm_segments() == []

    def test_vp_error_matches_inline_type(self):
        for bad in BAD_RANKS.values():
            with pytest.raises(VpProgramError) as inline_err:
                run_ppm(main_with(crashing_kernel, bad), _cluster())
            with pytest.raises(VpProgramError) as proc_err:
                run_ppm(
                    main_with(crashing_kernel, bad),
                    _cluster(),
                    executor="process",
                    workers=2,
                )
            assert type(inline_err.value) is type(proc_err.value)
            assert str(inline_err.value) == str(proc_err.value)

    def test_keyboard_interrupt_propagates_and_no_leak(self):
        for bad in BAD_RANKS.values():
            with pytest.raises(KeyboardInterrupt):
                run_ppm(
                    main_with(interrupting_kernel, bad),
                    _cluster(),
                    executor="process",
                    workers=2,
                )
            assert live_ppm_segments() == []

    @pytest.mark.parametrize("kernel", [crashing_kernel, interrupting_kernel])
    @pytest.mark.parametrize("shard", list(BAD_RANKS))
    def test_failed_round_is_drained(self, shard, kernel):
        _, inline = run_ppm(main_recovering(kernel, BAD_RANKS[shard]), _cluster())
        _, proc = run_ppm(
            main_recovering(kernel, BAD_RANKS[shard]), _cluster(),
            executor="process", workers=2,
        )
        np.testing.assert_array_equal(inline, proc)
        assert _no_child_processes()
        assert live_ppm_segments() == []

    def test_dead_worker_raises_and_no_leak(self):
        with pytest.raises(ParallelExecutionError) as ei:
            run_ppm(
                main_with(dying_kernel),
                _cluster(),
                executor="process",
                workers=2,
            )
        assert "died" in str(ei.value)
        assert live_ppm_segments() == []

    def test_unserialisable_reply_ppm504_and_no_leak(self):
        with pytest.raises(ParallelConfigError) as ei:
            run_ppm(
                main_with(unpicklable_reduce_kernel),
                _cluster(),
                executor="process",
                workers=2,
            )
        assert ei.value.code == "PPM504"
        assert live_ppm_segments() == []

    def test_clean_run_leaves_no_segments(self):
        def ok_kernel_main(ppm):
            A = ppm.global_shared("A", 8)
            ppm.do(4, clean_kernel, A)
            return A.committed.copy()

        _, r = run_ppm(ok_kernel_main, _cluster(), executor="process", workers=2)
        assert live_ppm_segments() == []
        np.testing.assert_array_equal(r, np.arange(8, dtype=float))


def clean_kernel(ctx, A):
    yield ctx.global_phase
    A[ctx.global_rank] = float(ctx.global_rank)
    yield ctx.global_phase


def write_then_interrupt_kernel(ctx, A, bad):
    """Commits A[rank] = rank + 1 at the first barrier, then buffers a
    poison write that an interrupt must prevent from ever committing."""
    yield ctx.global_phase
    A[ctx.global_rank] = float(ctx.global_rank + 1)
    yield ctx.global_phase  # barrier: the writes above commit here
    A[ctx.global_rank] = 99.0  # buffered only — must never commit
    if ctx.global_rank == bad:
        raise KeyboardInterrupt
    yield ctx.global_phase


# ----------------------------------------------------------------------
# Interrupt mid-round: commit atomicity and orphan-free teardown
# ----------------------------------------------------------------------

def _no_child_processes(deadline=5.0):
    import multiprocessing
    import time

    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if not multiprocessing.active_children():  # also reaps zombies
            return True
        time.sleep(0.05)
    return False


class TestInterruptMidRound:
    """A ctrl-C arriving mid-round must behave like a phase-boundary
    cut: earlier barriers' commits stand, the interrupted round's
    buffered writes vanish, every worker process is reaped and no
    ``/dev/shm`` segment survives."""

    def _observed(self, bad, **run_opts):
        boxes = []

        def main(ppm):
            self.runtime = ppm.runtime
            A = ppm.global_shared("A", 16)
            try:
                ppm.do(8, write_then_interrupt_kernel, A, bad)
            finally:
                boxes.append(A.committed.copy())

        with pytest.raises(KeyboardInterrupt):
            run_ppm(main, _cluster(), **run_opts)
        return boxes[0]

    def test_no_partial_commit_matches_inline(self):
        for bad in BAD_RANKS.values():
            inline = self._observed(bad)
            proc = self._observed(bad, executor="process", workers=2)
            np.testing.assert_array_equal(inline, proc)
            # The first barrier's writes committed; the poisoned round's
            # buffered 99s did not.
            np.testing.assert_array_equal(
                proc[:8], np.arange(1.0, 9.0)
            )
            assert not (proc == 99.0).any()
            assert live_ppm_segments() == []

    def test_no_orphaned_children_or_segments(self):
        for bad in BAD_RANKS.values():
            self._observed(bad, executor="process", workers=3)
            assert _no_child_processes()
            assert live_ppm_segments() == []

    def test_interrupt_under_supervision_not_retried(self):
        # A KeyboardInterrupt — shipped back as an ordinary exception
        # reply, or raised by the parent's own shard — is not a worker
        # failure: the supervisor must not count it as a crash and
        # burn the respawn budget replaying the interrupted round.
        from repro.resilience import ResiliencePolicy

        for bad in BAD_RANKS.values():
            proc = self._observed(
                bad, executor="process", workers=2,
                resilience=ResiliencePolicy(),
            )
            assert not (proc == 99.0).any()
            state = self.runtime.resilience.supervision
            assert (state.crashes, state.respawns) == (0, 0)
            assert _no_child_processes()
            assert live_ppm_segments() == []


# ----------------------------------------------------------------------
# Idempotent segment release
# ----------------------------------------------------------------------

class TestIdempotentRelease:
    """Every registry release path — retire-on-swap, explicit
    ``close()``, the ``weakref.finalize`` backstop — must unlink each
    segment exactly once, however they overlap.  A double unlink used
    to skip the resource tracker's deregistration and surface as a
    spurious leaked-``/dev/shm`` warning at interpreter shutdown."""

    @pytest.fixture
    def unlink_counts(self, monkeypatch):
        from multiprocessing import shared_memory

        counts: dict[str, int] = {}
        real = shared_memory.SharedMemory.unlink

        def counting(segment):
            counts[segment.name] = counts.get(segment.name, 0) + 1
            return real(segment)

        monkeypatch.setattr(shared_memory.SharedMemory, "unlink", counting)
        return counts

    def test_close_then_backstop_unlinks_each_segment_once(self, unlink_counts):
        from repro.parallel.shm import ShmRegistry, _unlink_once

        reg = ShmRegistry()
        reg.allocate("A", None, (8,), np.float64, 0.0)
        reg.allocate("B", 0, (4,), np.float64, 1.0)
        reg.swap("A", None)  # retires A's original segment on the way
        segments = [b.segment for b in reg._blocks.values()]
        reg.close()
        reg.close()  # an explicit double close is a no-op
        for segment in segments:
            _unlink_once(segment)  # the finalize backstop re-reaching it
        # Three segments ever existed: A original, A swapped, B.
        assert len(unlink_counts) == 3
        assert all(n == 1 for n in unlink_counts.values()), unlink_counts
        assert live_ppm_segments() == []

    def test_backstop_then_close(self, unlink_counts):
        from repro.parallel.shm import ShmRegistry

        reg = ShmRegistry()
        reg.allocate("A", None, (8,), np.float64, 0.0)
        reg.allocate("B", 1, (4,), np.float64, 2.0)
        reg._finalizer()  # backstop fires first (interpreter teardown)
        reg.close()  # explicit close afterwards must not re-unlink
        assert len(unlink_counts) == 2
        assert all(n == 1 for n in unlink_counts.values()), unlink_counts
        assert live_ppm_segments() == []
