"""Cluster topology: nodes and cores of the simulated machine."""

from __future__ import annotations

from typing import Iterator

from repro.config import MachineConfig
from repro.machine.clock import LogicalClock
from repro.machine.memory import NodeMemory
from repro.machine.network import NetworkModel
from repro.machine.trace import Trace


class Node:
    """One simulated node: an id, per-core clocks, and shared memory."""

    def __init__(self, node_id: int, cores: int) -> None:
        if cores < 1:
            raise ValueError(f"node needs at least one core, got {cores}")
        self.node_id = node_id
        self.cores = cores
        self.memory = NodeMemory(node_id)
        self.clock = LogicalClock()
        self.core_clocks = [LogicalClock() for _ in range(cores)]

    def sync_cores(self) -> float:
        """Node-level barrier: all core clocks and the node clock jump
        to the maximum core time.  Returns that time."""
        t = max(self.clock.now, max(c.now for c in self.core_clocks))
        self.clock.merge(t)
        for c in self.core_clocks:
            c.merge(t)
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, cores={self.cores})"


class Cluster:
    """The simulated machine: ``n_nodes`` nodes of ``cores_per_node``
    cores, one network model, and the traffic counters."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.network = NetworkModel(config)
        self.trace = Trace()
        self.nodes = [Node(i, config.cores_per_node) for i in range(config.n_nodes)]

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def cores_per_node(self) -> int:
        return self.config.cores_per_node

    @property
    def total_cores(self) -> int:
        return self.config.total_cores

    def node(self, node_id: int) -> Node:
        """Fetch a node by id with range checking."""
        if not 0 <= node_id < len(self.nodes):
            raise IndexError(f"node id {node_id} out of range [0, {len(self.nodes)})")
        return self.nodes[node_id]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # Rank <-> (node, core) mapping used by the MPI layer: ranks are
    # laid out node-major, matching how MPI jobs are launched on
    # multicore clusters (ranks 0..C-1 on node 0, etc.).
    # ------------------------------------------------------------------
    def rank_to_node(self, rank: int) -> int:
        """Node id hosting MPI rank ``rank``."""
        if not 0 <= rank < self.total_cores:
            raise IndexError(f"rank {rank} out of range [0, {self.total_cores})")
        return rank // self.cores_per_node

    def rank_to_core(self, rank: int) -> int:
        """Core index (within its node) of MPI rank ``rank``."""
        if not 0 <= rank < self.total_cores:
            raise IndexError(f"rank {rank} out of range [0, {self.total_cores})")
        return rank % self.cores_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True when the two ranks share a physical node (both must be
        in range: the MPI layer's hot path passes only valid ranks)."""
        cores = self.config.cores_per_node
        return rank_a // cores == rank_b // cores

    @property
    def elapsed(self) -> float:
        """Makespan so far: the maximum node clock."""
        return max(n.clock.now for n in self.nodes)

    def reset_clocks(self) -> None:
        """Zero every clock (between experiment repetitions)."""
        for n in self.nodes:
            n.clock.reset()
            for c in n.core_clocks:
                c.reset()
