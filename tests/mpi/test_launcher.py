"""Tests for the SPMD launcher."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.config import testing as mkconfig
from repro.machine import Cluster
from repro.mpi import ANY_SOURCE, MpiDeadlockError, run_mpi


class TestLaunch:
    def test_one_rank_per_core_by_default(self, cluster2x2):
        res = run_mpi(lambda comm: comm.size, cluster2x2)
        assert res.results == [4, 4, 4, 4]

    def test_reduced_rank_count(self, cluster2x2):
        res = run_mpi(lambda comm: comm.rank, cluster2x2, ranks=2)
        assert res.results == [0, 1]

    def test_rank_count_validation(self, cluster2x2):
        with pytest.raises(ValueError):
            run_mpi(lambda comm: None, cluster2x2, ranks=5)
        with pytest.raises(ValueError):
            run_mpi(lambda comm: None, cluster2x2, ranks=0)

    def test_extra_args_passed_through(self, cluster2x2):
        def prog(comm, a, b=0):
            return a + b + comm.rank

        res = run_mpi(prog, cluster2x2, 10, b=5)
        assert res.results == [15, 16, 17, 18]

    def test_node_and_core_identity(self, cluster2x2):
        def prog(comm):
            return (comm.ctx.node_id, comm.ctx.core_id)

        res = run_mpi(prog, cluster2x2)
        assert res.results == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestResults:
    def test_elapsed_is_max_rank_time(self, cluster2x2):
        def prog(comm):
            comm.work(comm.rank * 1e6)

        res = run_mpi(prog, cluster2x2)
        assert res.elapsed == pytest.approx(max(res.rank_times))
        assert res.rank_times[3] > res.rank_times[0]

    def test_rank_exception_propagates(self, cluster2x2):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 2 failed") as info:
            run_mpi(prog, cluster2x2)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "rank0, rank1, match",
        [
            (
                lambda comm: comm.recv(source=1, tag=1),
                lambda comm: comm.recv(source=0, tag=1),
                r"rank 0 waits in recv\(source=1, tag=1\); rank 1 waits in recv\(source=0, tag=1\)",
            ),
            (
                lambda comm: comm.barrier(),
                lambda comm: comm.recv(source=0, tag=3),
                r"rank 0 waits in barrier; rank 1 waits in recv\(source=0, tag=3\)",
            ),
        ],
        ids=["recv-recv", "barrier-recv"],
    )
    def test_deadlock_detection(self, rank0, rank1, match):
        cluster = Cluster(mkconfig(n_nodes=1, cores_per_node=2))

        def prog(comm):
            (rank0 if comm.rank == 0 else rank1)(comm)

        with pytest.raises(MpiDeadlockError, match=match):
            run_mpi(prog, cluster)

    def test_no_rank_thread_outlives_the_job(self, cluster2x2):
        def clean(comm):
            return comm.allreduce(comm.rank)

        def failing(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            try:
                comm.barrier()
            finally:
                comm.barrier()  # blocks again while the job is torn down

        def deadlocked(comm):
            comm.recv(source=comm.rank ^ 1, tag=1)

        def rank_threads():
            return [t.name for t in threading.enumerate() if t.name.startswith("mpi-rank-")]

        assert run_mpi(clean, cluster2x2).results == [6, 6, 6, 6]
        assert rank_threads() == []
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_mpi(failing, cluster2x2)
        assert rank_threads() == []
        with pytest.raises(MpiDeadlockError):
            run_mpi(deadlocked, cluster2x2)
        assert rank_threads() == []

    def test_schedule_survives_fast_thread_switching(self):
        """The baton's state has no lock: only its holder touches it.
        Switching host threads every microsecond must change nothing."""
        cluster = Cluster(mkconfig(n_nodes=4, cores_per_node=4))

        def prog(comm):
            order = []
            for step in range(3):
                comm.work(1e3 * ((comm.rank * 7 + step) % 5))
                if comm.rank == 0:
                    order += [comm.recv(source=ANY_SOURCE, tag=step) for _ in range(comm.size - 1)]
                    for dest in range(1, comm.size):
                        comm.send(step, dest=dest, tag=step)
                else:
                    comm.send(comm.rank, dest=0, tag=step)
                    while not comm.probe(source=0, tag=step):
                        pass
                    comm.recv(source=0, tag=step)
                comm.barrier()
            return order, comm.now

        def run_once():
            box = []
            thread = threading.Thread(target=lambda: box.append(run_mpi(prog, cluster)), daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "run_mpi hung"
            return box[0].results

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = [run_once() for _ in range(3)]
        finally:
            sys.setswitchinterval(old)
        assert outcomes[0] == outcomes[1] == outcomes[2]
