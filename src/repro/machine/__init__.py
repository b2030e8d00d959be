"""Simulated cluster substrate.

This package stands in for the paper's physical platform (Franklin, a
Cray XT4).  It provides:

* :class:`~repro.machine.cluster.Cluster` — nodes and cores;
* :class:`~repro.machine.clock.LogicalClock` — per-entity simulated time;
* :class:`~repro.machine.network.NetworkModel` — message and collective
  cost formulas (alpha/beta, intra-node, bundling, NIC contention);
* :class:`~repro.machine.memory.NodeMemory` — per-node shared storage;
* :class:`~repro.machine.trace.Trace` — per-kind message and byte counters.
"""

from repro.machine.clock import LogicalClock
from repro.machine.cluster import Cluster, Node
from repro.machine.memory import NodeMemory
from repro.machine.network import BundleCost, NetworkModel
from repro.machine.trace import Trace

__all__ = [
    "BundleCost",
    "Cluster",
    "LogicalClock",
    "NetworkModel",
    "Node",
    "NodeMemory",
    "Trace",
]
