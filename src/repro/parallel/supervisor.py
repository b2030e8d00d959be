"""Worker supervision for the process backend: failure detection,
recovery by restart and graceful degradation.

Without a failure policy a dead worker is fatal (PPM603): a SIGKILLed,
OOM-killed or hung child tears down the whole run.  Under
``run_ppm(..., executor="process", resilience=ResiliencePolicy())`` the
run recovers the way :mod:`repro.resilience` incarnations do for the
simulated machine — by deterministic re-execution of the driver:

* **Detection** — :class:`~repro.parallel.pool.WorkerPool` polls each
  reply against a per-round deadline derived from the shard size
  (:meth:`~repro.resilience.ResiliencePolicy.round_deadline`).  A
  closed pipe classifies as ``"crash"``, a deadline overrun as
  ``"hang"`` (the parent then hard-kills the stuck child so the pool
  can be torn down), and a reply that fails to deserialise as
  ``"corrupt-reply"``.
* **Restart** — every detected failure abandons the attempt:
  :meth:`SupervisionState.fail` raises the internal
  :class:`~repro.core.errors._PoolRestart` signal, the pool and its
  segments are released on the way out, and ``run_ppm``'s
  re-execution loop (the one crash recovery goes round too) re-runs
  the driver in a fresh pool of the same size after an exponential
  back-off (:meth:`SupervisionState.restart`).  A
  restarted run *is* a fault-free run, so committed arrays, simulated
  times and reports equal the inline engine's on every kernel the
  model admits (``tests/parallel/test_supervisor.py``).
* **Degradation** — ``max_respawns`` bounds the restarts at one pool
  size.  When the budget is spent the run degrades instead of
  crashing: ``degrade="shrink"`` restarts with one process fewer (at
  one the parent runs alone), ``degrade="inline"`` falls
  straight back to the inline engine, ``degrade="error"`` raises
  :class:`~repro.core.errors.SupervisionExhaustedError` (PPM604).

Drills: a :meth:`~repro.resilience.FaultPlan.kill_worker` rule in the
policy's fault plan SIGKILLs or SIGSTOPs a live worker at chosen round
or commit dispatches, deterministically (seeded victim choice; the
dispatch clock lives on :class:`SupervisionState`, so a pool restart
never re-fires a kill and the next run starts over).
"""

from __future__ import annotations

import os
import signal as _signal
import time
from dataclasses import dataclass, field

from repro.core.errors import SupervisionExhaustedError, _PoolRestart
from repro.obs.events import PoolDegraded, WorkerCrash, WorkerRespawn


def _backoff(n: int) -> float:
    """Host seconds slept before the ``n``-th respawn (1-based) at one
    pool size: 50 ms, doubling, capped at 1 s."""
    return min(0.05 * 2 ** (n - 1), 1.0)


@dataclass
class SupervisionState:
    """The worker supervisor of one supervised run.

    Its counters and the kill clock survive pool restarts, so the
    final report covers the whole run and a fired kill never re-fires.
    Each attempt's :class:`~repro.parallel.backend.ProcessBackend`
    attaches itself as :attr:`backend`; its pool consults
    :meth:`deadline_for` and :meth:`maybe_kill` on every supervised
    round-trip and hands :meth:`fail` the failures one detected.  The
    policy and the tracer are the attempt's resilience manager's."""

    crashes: int = 0
    hangs: int = 0
    corrupt: int = 0
    respawns: int = 0
    degradations: int = 0
    recovery_host_s: float = 0.0
    #: Restarts spent at the current pool size (the ``max_respawns``
    #: budget; a degradation starts a new one).
    restarts_at_size: int = 0
    #: Dispatches sent so far, per command tag: the clock of the fault
    #: plan's kill rules.  Never reset, so a restart re-fires no kill.
    dispatches: dict = field(default_factory=dict)
    #: The running attempt's backend, and its largest shard (VPs) in
    #: the current ``do``.
    backend: object = field(default=None, repr=False)
    max_shard: int = 0

    # -- detection hooks (called by the pool) --------------------------
    def deadline_for(self) -> float:
        policy = self.backend.rt.resilience.policy
        return policy.round_deadline(self.max_shard)

    def maybe_kill(self, tag: str, sent: list[int]) -> None:
        """Fire the fault plan's worker kills for this dispatch (a no-op
        without a ``kill_worker`` rule)."""
        plan = self.backend.rt.resilience.policy.faults
        pool = self.backend._pool
        if plan is None or not plan.kills or not pool.n_workers:
            return
        i = self.dispatches.get(tag, 0)
        self.dispatches[tag] = i + 1
        hit = plan.kill_at(tag, i, pool.n_workers)
        if hit is None or hit[0] not in sent:
            return
        victim, how = hit
        sig = _signal.SIGKILL if how == "kill" else _signal.SIGSTOP
        proc = pool._procs[victim]
        try:
            os.kill(proc.pid, sig)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced exit
            pass

    # -- recovery ------------------------------------------------------
    def fail(self, tag: str, failures) -> None:
        """Count and report every ``(worker, kind)`` failure of one
        round-trip (on the run's tracer, which a resilience fast-forward
        detaches from the runtime), then abandon the attempt: always
        raises."""
        rt = self.backend.rt
        pol, tracer = rt.resilience.policy, rt.resilience.tracer
        for w, kind in failures:
            if kind == "hang":
                self.hangs += 1
            elif kind == "corrupt-reply":
                self.corrupt += 1
            else:
                self.crashes += 1
            if tracer is not None:
                tracer.emit(
                    WorkerCrash(
                        phase=rt.stats_global_phases + rt.stats_node_phases,
                        worker=w,
                        failure=kind,
                        command=tag,
                    )
                )
        w, kind = failures[0]
        processes = self.backend.n_workers
        if self.restarts_at_size < pol.max_respawns:
            raise _PoolRestart("respawn", processes, w)
        if pol.degrade == "error":
            raise SupervisionExhaustedError(
                f"respawn budget ({pol.max_respawns}) exhausted recovering "
                f"worker {w} ({kind}) and degrade='error'; raise "
                "max_respawns or pick degrade='shrink'/'inline' to keep "
                "the run alive"
            )
        raise _PoolRestart(pol.degrade, processes, w)

    def restart(self, sig: _PoolRestart, opts: dict,
                t0: float) -> WorkerRespawn | PoolDegraded:
        """Account for one abandoned attempt (started at host time
        ``t0``) and set up the next: back off and count a respawn, or —
        the budget at this size spent — weaken ``opts`` (``run_ppm``'s
        engine options) to one process fewer or to the inline engine.
        Returns the :class:`WorkerRespawn` / :class:`PoolDegraded`
        event of the decision."""
        if sig.mode == "respawn":
            self.restarts_at_size += 1
            time.sleep(_backoff(self.restarts_at_size))
            host_s = time.perf_counter() - t0
            self.respawns += 1
            self.recovery_host_s += host_s
            return WorkerRespawn(
                phase=-1,
                worker=sig.worker,
                attempt=self.restarts_at_size,
                host_s=host_s,
            )
        self.degradations += 1
        self.restarts_at_size = 0
        if sig.mode == "shrink" and sig.workers_from - 1 >= 1:
            workers_to = opts["workers"] = sig.workers_from - 1
        else:
            opts["executor"] = "inline"
            workers_to = 0
        return PoolDegraded(
            phase=-1,
            mode=sig.mode,
            workers_from=sig.workers_from,
            workers_to=workers_to,
        )
