"""Resilience for PPM runs: fault injection, retrying delivery and
phase-boundary checkpoint/restore.

The paper's phase construct (§3) makes every phase barrier a globally
consistent cut: writes only become visible at end-of-phase commit, so
the committed state between two phases is exactly a coordinated
checkpoint — no message can be in flight across the cut.  This package
exploits that to add fault tolerance the original evaluation never
exercised:

* :class:`FaultPlan` / :class:`FaultInjector` — a deterministic,
  seeded description of what goes wrong: message drops, corruption,
  delays and duplicates on the bundled-message path, a node crash at a
  chosen phase, straggler cores;
* :class:`RetryPolicy` / :mod:`repro.resilience.retry` — timeout and
  exponential backoff for dropped/corrupted bundles, with sequence
  numbers making duplicate delivery a no-op;
* :class:`CheckpointManager` — coordinated cuts at configurable phase
  intervals, priced as a write-out of every ``PPM_global_shared``/
  ``PPM_node_shared`` instance; a crash rolls back to the last one by
  deterministic re-execution;
* :class:`ResilienceManager` — the runtime-facing orchestrator wired
  into :func:`repro.core.program.run_ppm` via
  ``run_ppm(..., faults=, checkpoint_every=, resilience=)``.

Recovered runs commit arrays bitwise-identical to a fault-free run
(property-tested); with every knob off the hot path is untouched.
Model and consistency argument: docs/RESILIENCE.md.  Chaos demos::

    python -m repro.resilience demo --small --check
    python -m repro.resilience chaos --executor process --small --check

``demo`` injects *simulated* faults; ``chaos`` SIGKILLs real worker
processes under the supervised process executor
(:class:`~repro.parallel.SupervisionPolicy`) and verifies recovery
by restart (docs/PARALLEL.md).
"""

from repro.core.errors import (
    NodeCrashFault,
    ResilienceConfigError,
    ResilienceError,
)
from repro.resilience.checkpoint import Checkpoint, CheckpointManager
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.manager import ResilienceManager, ResiliencePolicy
from repro.resilience.retry import DeliveryOutcome, RetryPolicy

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "DeliveryOutcome",
    "FaultInjector",
    "FaultPlan",
    "NodeCrashFault",
    "ResilienceConfigError",
    "ResilienceError",
    "ResilienceManager",
    "ResiliencePolicy",
    "RetryPolicy",
]
