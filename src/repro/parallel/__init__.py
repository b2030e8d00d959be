"""repro.parallel — the multi-process PPM execution backend.

``run_ppm(..., executor="process", workers=N)`` runs phase bodies on
N real processes: the committed store of every shared variable lives
in :mod:`multiprocessing.shared_memory` segments, the parent and N−1
forked worker processes map those segments zero-copy and advance
contiguous global-rank shards of the VPs (the parent the lowest), and
each phase round returns compact access/write/collective records that
the parent merges after its own through the unchanged commit, bundling
and timing pipeline.  Committed arrays, simulated times and traces are
bitwise-identical to the default ``executor="inline"`` engine (see
docs/PARALLEL.md).

Public surface
--------------
* :class:`~repro.parallel.shm.ShmRegistry` — parent-side shared-memory
  segment registry with leak-proof cleanup;
* :class:`~repro.parallel.pool.WorkerPool` — the persistent worker
  process pool and its command pipe protocol;
* :class:`~repro.parallel.backend.ProcessBackend` — the runtime
  execution backend gluing the two into phase rounds;
* :func:`~repro.parallel.backend.default_workers` — the process count
  used when ``workers=None``;
* :class:`~repro.parallel.supervisor.SupervisionState` — fault-tolerant
  worker pool: crash/hang detection, recovery by restart and graceful
  degradation, on whenever the run has a failure policy
  (``run_ppm(..., executor="process", resilience=ResiliencePolicy())``;
  its budget and its ``FaultPlan.kill_worker`` drills live on that one
  value, :class:`repro.resilience.ResiliencePolicy`).

Configuration errors raise
:class:`~repro.core.errors.ParallelConfigError` with ``PPM5xx``/
``PPM6xx`` codes; an unsupervised worker death raises
:class:`~repro.core.errors.WorkerDeathError` (``PPM603``) and an
exhausted respawn budget under ``degrade="error"`` raises
:class:`~repro.core.errors.SupervisionExhaustedError` (``PPM604``)
(docs/DIAGNOSTICS.md).
"""

from repro.core.errors import (
    ParallelConfigError,
    ParallelError,
    ParallelExecutionError,
    SupervisionExhaustedError,
    WorkerDeathError,
)
from repro.parallel.backend import ProcessBackend, default_workers
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import ShmRegistry, live_ppm_segments
from repro.parallel.supervisor import SupervisionState

__all__ = [
    "ParallelConfigError",
    "ParallelError",
    "ParallelExecutionError",
    "ProcessBackend",
    "ShmRegistry",
    "SupervisionExhaustedError",
    "SupervisionState",
    "WorkerPool",
    "default_workers",
    "live_ppm_segments",
]
