"""MPI-like message-passing library on the simulated cluster.

The paper's baselines are hand-written MPI programs and its PPM runtime
sits "on top of an existing network communication software layer (e.g.
MPI)".  This package provides that layer: blocking/non-blocking
point-to-point messaging plus the usual collectives, with one Python
thread per rank and simulated-time accounting through each rank's
logical clock.  The rank threads pass a baton, so exactly one runs at a
time and a rank yields only where it would block (the schedule is
written down in :mod:`repro.mpi.launcher`).

Costs are charged where a real MPI implementation pays them:

* per-message CPU overhead on both endpoints (intra-node messages too,
  unless the SmartMap ablation is on);
* alpha/beta wire time (inter-node) or memory-copy time (intra-node);
* NIC contention: MPI ranks inject traffic without coordination, so
  inter-node wire time is inflated by the configured contention factor
  for the node's core count.

Determinism: message matching is FIFO per (source, tag) and completion
times follow the conservative virtual-time rule
``completion = max(receiver_clock, arrival) + overhead``; the baton's
fixed schedule makes wildcard receives and ``probe`` loops repeat too,
so results and simulated times are independent of host thread
scheduling.
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator, Request
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.launcher import MpiDeadlockError, run_mpi
from repro.mpi.process import RankContext

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MpiDeadlockError",
    "RankContext",
    "Request",
    "payload_nbytes",
    "run_mpi",
]
