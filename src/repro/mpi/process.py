"""Per-rank execution context for the simulated MPI layer."""

from __future__ import annotations

from repro.machine.clock import LogicalClock
from repro.machine.cluster import Cluster


class RankContext:
    """Identity, clock and cost-charging interface of one MPI rank.

    Application code receives a :class:`~repro.mpi.comm.Communicator`
    whose ``.ctx`` is this object; kernels charge their computation via
    :meth:`work` so that simulated time reflects the target machine
    rather than the Python interpreter.
    """

    def __init__(self, rank: int, size: int, cluster: Cluster) -> None:
        self.rank = rank
        self.size = size
        self.cluster = cluster
        self.node_id = cluster.rank_to_node(rank)
        self.core_id = cluster.rank_to_core(rank)
        self.clock = LogicalClock()

    @property
    def config(self):
        """The cluster's :class:`~repro.config.MachineConfig`."""
        return self.cluster.config

    @property
    def now(self) -> float:
        """This rank's current simulated time."""
        return self.clock.now

    # ------------------------------------------------------------------
    # Cost charging
    # ------------------------------------------------------------------
    def work(self, flops: float) -> None:
        """Charge ``flops`` floating-point operations of computation."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self.clock.advance(flops * self.config.flop_time)

    def mem_work(self, accesses: float) -> None:
        """Charge ``accesses`` irregular local memory accesses."""
        if accesses < 0:
            raise ValueError(f"accesses must be non-negative, got {accesses}")
        self.clock.advance(accesses * self.config.mem_access_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}/{self.size}, node={self.node_id}, t={self.now:.6g})"
