"""Phase-boundary checkpoints of PPM shared state: the schedule and
the simulated cost.

Why the phase barrier is a correct checkpoint cut (paper §3): writes
made inside a phase are buffered and apply only at the end-of-phase
commit, every VP of the cluster passes the same barrier, and no
message crosses it — commit-time bundles are flushed and consumed
within the committing phase.  The committed arrays *between* two
phases therefore form a coordinated global snapshot with no in-flight
state, exactly what uncoordinated checkpointing protocols pay
message-logging to approximate.

The simulator records *where* the cut is and what writing it out
costs, and keeps no copy of the arrays.  A VP's locals live in its
Python generator frame, which cannot be serialized, so recovery has to
re-execute the driver deterministically from its start and
fast-forward to the cut (:mod:`repro.resilience.manager`) — and that
re-execution recomputes every committed array to the very bytes a
copy would hold (``tests/resilience/test_recovery.py`` checks it at
every resume).  Simulated time is charged as a real
checkpoint/restore system would pay it — write-out at
``checkpoint_bandwidth``, detection timeout, read-back — while the
host-side replay below the cut is a simulator artifact that costs no
simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shared import GlobalShared
from repro.obs.events import CheckpointTaken


@dataclass(frozen=True)
class Checkpoint:
    """One coordinated cut: the committed state after ``phase``,
    ``nbytes`` of shared data written out by simulated time ``t``."""

    phase: int
    t: float
    nbytes: int


class CheckpointManager:
    """Schedules and prices coordinated phase-boundary checkpoints.

    ``every`` is the phase interval: a cut is recorded after phases
    ``every - 1``, ``2 * every - 1``, ... so ``every == 1``
    checkpoints every phase.  Only the latest
    checkpoint is retained (recovery rolls back to the last cut;
    multi-version retention would model hierarchical schemes the
    paper's machine does not have).

    ``alpha``/``bytes_per_second`` price the coordinated write-out:
    ``alpha + nbytes / (n_nodes * bytes_per_second)`` simulated
    seconds, every node draining its partition in parallel.  The
    values come from a :class:`~repro.resilience.ResiliencePolicy`,
    which has checked them.
    """

    def __init__(
        self,
        every: int,
        *,
        alpha: float = 100.0e-6,
        bytes_per_second: float = 2.0e9,
    ) -> None:
        self.every = every
        self.alpha = alpha
        self.bytes_per_second = bytes_per_second
        self.latest: Checkpoint | None = None
        #: Running totals for the run report.
        self.count = 0
        self.total_time = 0.0

    # ------------------------------------------------------------------
    def due(self, phase_index: int) -> bool:
        """Whether a checkpoint is due after committing this phase."""
        return (phase_index + 1) % self.every == 0

    def take(self, phase_index: int, runtime) -> Checkpoint:
        """Record the cut after ``phase_index`` and charge the
        coordinated write-out of every shared instance to every node's
        clock."""
        nbytes = 0
        for handle in runtime.shared_registry.values():
            if isinstance(handle, GlobalShared):
                nbytes += handle._data.nbytes
            else:
                nbytes += sum(inst.nbytes for inst in handle._data)
        cluster = runtime.cluster
        duration = self.alpha + nbytes / (cluster.n_nodes * self.bytes_per_second)
        # Coordinated: the checkpoint closes with a barrier, so all
        # clocks land on the same completion time.
        t_done = max(n.clock.now for n in cluster) + duration
        for node in cluster:
            node.clock.merge(t_done)
            for c in node.core_clocks:
                c.merge(t_done)
        ckpt = Checkpoint(phase=phase_index, t=t_done, nbytes=nbytes)
        self.latest = ckpt
        self.count += 1
        self.total_time += duration
        tr = runtime.tracer
        if tr is not None:
            tr.emit(
                CheckpointTaken(
                    phase=phase_index, nbytes=nbytes, duration=duration, t=t_done
                )
            )
        return ckpt
