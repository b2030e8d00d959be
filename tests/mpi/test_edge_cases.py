"""Edge-case tests for the simulated MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.machine import Cluster
from repro.mpi import run_mpi
from repro.mpi.collectives import CollectiveMismatchError, fold, resolve_op


def _run(prog, n_nodes=2, cores=2, **cfg):
    cluster = Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))
    return run_mpi(prog, cluster), cluster


class TestSingleRank:
    def test_collectives_trivial(self):
        def prog(comm):
            assert comm.allreduce(5) == 5
            assert comm.bcast("x", root=0) == "x"
            assert comm.allgather(1) == [1]
            assert comm.scan(3) == 3
            assert comm.alltoall([9]) == [9]
            comm.barrier()
            return comm.reduce(2, root=0)

        (res, _) = _run(prog, n_nodes=1, cores=1)
        assert res.results == [2]

    def test_send_to_self(self):
        def prog(comm):
            comm.send([1, 2], dest=comm.rank, tag=5)
            return comm.recv(source=comm.rank, tag=5)

        (res, _) = _run(prog, n_nodes=1, cores=1)
        assert res.results[0] == [1, 2]


class TestOps:
    def test_resolve_op_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown reduction op"):
            resolve_op("median")

    def test_fold_rejects_empty(self):
        with pytest.raises(ValueError):
            fold([], "sum")

    def test_prod_op(self):
        def prog(comm):
            return comm.allreduce(comm.rank + 1, op="prod")

        (res, _) = _run(prog)
        assert res.results[0] == 24


class TestMismatchedCollectives:
    def test_mixed_kinds_detected(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allreduce(1)

        with pytest.raises(
            RuntimeError, match=r"mismatched collectives: \['allreduce', 'barrier'\]"
        ) as info:
            _run(prog)
        assert isinstance(info.value.__cause__, CollectiveMismatchError)


class TestLargePayloads:
    def test_multi_megabyte_array(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(300_000), dest=3)
            elif comm.rank == 3:
                data = comm.recv(source=0)
                return float(data.sum())

        (res, _) = _run(prog)
        assert res.results[3] == 300_000.0

    def test_bigger_payload_takes_longer(self):
        def make(n):
            def prog(comm):
                if comm.rank == 0:
                    comm.send(np.ones(n), dest=3)
                elif comm.rank == 3:
                    comm.recv(source=0)
                    return comm.now

            return prog

        (small, _) = _run(make(100))
        (large, _) = _run(make(1_000_000))
        assert large.results[3] > small.results[3]


class TestManyRanks:
    def test_64_rank_job(self):
        def prog(comm):
            total = comm.allreduce(1)
            right = (comm.rank + 1) % comm.size
            comm.send(comm.rank, dest=right, tag=1)
            left = (comm.rank - 1) % comm.size
            got = comm.recv(source=left, tag=1)
            return (total, got)

        (res, _) = _run(prog, n_nodes=16, cores=4)
        assert all(t == 64 for t, _ in res.results)
        assert all(g == (r - 1) % 64 for r, (_, g) in enumerate(res.results))


class TestContentionModel:
    def test_inter_node_wire_inflated_by_core_count(self):
        """MPI's uncoordinated injection pays the contention factor;
        a fatter node makes the same message slower."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(100_000), dest=comm.size - 1)
            elif comm.rank == comm.size - 1:
                comm.recv(source=0)
                return comm.now

        (thin, _) = _run(prog, n_nodes=2, cores=2)
        (fat, _) = _run(prog, n_nodes=2, cores=8)
        assert fat.results[-1] > thin.results[-1]
