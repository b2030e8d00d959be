"""Resilience for PPM runs: node-crash injection, phase-boundary
checkpoint/restore and, under the process executor, worker kills.

The paper's phase construct (§3) makes every phase barrier a globally
consistent cut: writes only become visible at end-of-phase commit, so
the committed state between two phases is exactly a coordinated
checkpoint — no message can be in flight across the cut.  This package
exploits that to add fault tolerance the original evaluation never
exercised:

* :class:`ResiliencePolicy` — the run's one failure policy
  (``run_ppm(..., resilience=)``): the fault schedule and the recovery
  budget;
* :class:`FaultPlan` / :class:`FaultInjector` — a deterministic,
  seeded description of what goes wrong: a node crash at a chosen
  phase and, under ``executor="process"``, real worker kills
  (:meth:`FaultPlan.kill_worker`);
* :mod:`repro.resilience.checkpoint` — coordinated cuts at configurable
  phase intervals, priced as a write-out of every
  ``PPM_global_shared``/``PPM_node_shared`` instance; a crash rolls
  back to the last one by deterministic re-execution;
* :class:`ResilienceManager` — the runtime-facing orchestrator
  :func:`repro.core.program.run_ppm` builds for each attempt.

Recovered runs commit arrays bitwise-identical to a fault-free run
(property-tested); with ``resilience=None`` the hot path is untouched.
Model and consistency argument: docs/RESILIENCE.md; worker
supervision, which a policy turns on under the process executor:
docs/PARALLEL.md.
"""

from repro.core.errors import (
    NodeCrashFault,
    ResilienceConfigError,
    ResilienceError,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.manager import ResilienceManager, ResiliencePolicy

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "NodeCrashFault",
    "ResilienceConfigError",
    "ResilienceError",
    "ResilienceManager",
    "ResiliencePolicy",
]
