"""Tests for simulated MPI point-to-point messaging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.machine import Cluster
from repro.mpi import run_mpi
from repro.mpi.comm import ANY_SOURCE, ANY_TAG


def _run(prog, n_nodes=2, cores=2, **cfg):
    cluster = Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))
    return run_mpi(prog, cluster), cluster


class TestSendRecv:
    def test_payload_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": [1, 2]}, dest=1, tag=5)
            elif comm.rank == 1:
                return comm.recv(source=0, tag=5)

        (res, _) = _run(prog)
        assert res.results[1] == {"x": [1, 2]}

    def test_numpy_payload_copied(self):
        def prog(comm):
            if comm.rank == 0:
                a = np.arange(3.0)
                comm.send(a, dest=1)
                a[0] = 99.0  # mutate after send; receiver must not see it
            elif comm.rank == 1:
                return comm.recv(source=0)

        (res, _) = _run(prog)
        assert res.results[1][0] == 0.0

    def test_fifo_per_source_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=2)
            elif comm.rank == 1:
                return [comm.recv(source=0, tag=2) for _ in range(5)]

        (res, _) = _run(prog)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tag_selective_matching(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
            elif comm.rank == 1:
                second = comm.recv(source=0, tag=2)
                first = comm.recv(source=0, tag=1)
                return (first, second)

        (res, _) = _run(prog)
        assert res.results[1] == ("a", "b")

    def test_wildcard_source(self):
        def prog(comm):
            if comm.rank in (0, 1):
                comm.send(comm.rank, dest=2, tag=9)
            elif comm.rank == 2:
                got = {comm.recv(source=ANY_SOURCE, tag=9) for _ in range(2)}
                return got

        (res, _) = _run(prog, n_nodes=2, cores=2)
        assert res.results[2] == {0, 1}

    def test_dest_out_of_range(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=99)

        with pytest.raises(RuntimeError, match="out of range"):
            _run(prog)

    def test_sendrecv_exchange(self):
        def prog(comm):
            peer = comm.rank ^ 1
            if comm.rank < 2:
                return comm.sendrecv(comm.rank, dest=peer, source=peer)

        (res, _) = _run(prog)
        assert res.results[0] == 1
        assert res.results[1] == 0


class TestNonBlocking:
    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2], dest=1)
                req.wait()
            elif comm.rank == 1:
                req = comm.irecv(source=0)
                assert not req.test()
                data = req.wait()
                assert req.test()
                return data

        (res, _) = _run(prog)
        assert res.results[1] == [1, 2]

    def test_probe(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(7, dest=1, tag=3)
                comm.send(0, dest=1, tag=4)  # completion signal
            elif comm.rank == 1:
                comm.recv(source=0, tag=4)
                assert comm.probe(source=0, tag=3)
                assert not comm.probe(source=0, tag=99)
                return comm.recv(source=0, tag=3)

        (res, _) = _run(prog)
        assert res.results[1] == 7


class TestDeterminism:
    """The baton's fixed schedule gives racy programs one outcome."""

    def test_wildcard_receive_order(self):
        def prog(comm):
            if comm.rank == 0:
                return tuple(comm.recv(source=ANY_SOURCE, tag=0) for _ in range(3))
            comm.work(1e3 * (4 - comm.rank))
            comm.send(comm.rank, dest=0, tag=0)

        outcomes = {_run(prog)[0].results[0] for _ in range(10)}
        assert outcomes == {(1, 3, 2)}

    def test_probe_loop(self):
        def prog(comm):
            if comm.rank == 0:
                spins = 0
                while not comm.probe(source=3, tag=7):
                    spins += 1
                return spins, comm.recv(source=3, tag=7)
            if comm.rank == 3:
                comm.work(1e6)
                comm.send("ready", dest=0, tag=7)

        outcomes = {_run(prog)[0].results[0] for _ in range(10)}
        assert outcomes == {(1, "ready")}


class TestTiming:
    def test_recv_waits_for_arrival(self):
        """The receiver's clock must be at least the message arrival
        time (conservative virtual-time rule)."""

        def prog(comm):
            if comm.rank == 0:
                comm.work(1_000_000)  # 1e-3 s at default flop_time
                comm.send(1, dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
                return comm.now

        (res, cluster) = _run(prog)
        wire = cluster.network.message_time(8, intra_node=True)
        assert res.results[1] >= 1e-3 + wire

    def test_intra_node_cheaper_than_inter(self):
        def prog(comm):
            # rank 0 -> rank 1 (same node), rank 0 -> rank 2 (other node)
            if comm.rank == 0:
                comm.send(np.zeros(1000), dest=1)
                comm.send(np.zeros(1000), dest=2)
            elif comm.rank in (1, 2):
                comm.recv(source=0)
                return comm.now

        (res, _) = _run(prog)
        assert res.results[1] < res.results[2]

    def test_sender_charged_overhead(self):
        def prog(comm):
            if comm.rank == 0:
                t0 = comm.now
                comm.send(1, dest=1)
                return comm.now - t0
            if comm.rank == 1:
                comm.recv(source=0)

        (res, cluster) = _run(prog)
        assert res.results[0] == pytest.approx(cluster.config.mpi_msg_overhead)

    def test_deterministic_times_across_runs(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(100), dest=3)
            if comm.rank == 3:
                comm.recv(source=0)
            comm.barrier()
            return comm.now

        (res1, _) = _run(prog)
        (res2, _) = _run(prog)
        assert res1.results == res2.results
        assert res1.elapsed == res2.elapsed
