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
* :class:`~repro.parallel.supervisor.SupervisionPolicy` /
  :class:`~repro.parallel.supervisor.WorkerSupervisor` — fault-tolerant
  worker pool: crash/hang detection, recovery by restart and
  graceful degradation (``run_ppm(..., supervision=...)``);
* :class:`~repro.parallel.supervisor.ProcessChaos` — deterministic
  real-process fault injection (SIGKILL/SIGSTOP at round boundaries)
  for exercising the supervisor.

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
from repro.parallel.supervisor import (
    ProcessChaos,
    SupervisionPolicy,
    SupervisionState,
    WorkerSupervisor,
)

__all__ = [
    "ParallelConfigError",
    "ParallelError",
    "ParallelExecutionError",
    "ProcessBackend",
    "ProcessChaos",
    "ShmRegistry",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "SupervisionState",
    "WorkerPool",
    "WorkerSupervisor",
    "default_workers",
    "live_ppm_segments",
]
