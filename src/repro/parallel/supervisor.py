"""Worker supervision for the process backend: failure detection,
recovery by restart and graceful degradation.

Without supervision a dead worker is fatal (PPM603): a SIGKILLed,
OOM-killed or hung child tears down the whole run.  Under
``run_ppm(..., supervision=SupervisionPolicy())`` the run recovers the
way :mod:`repro.resilience` incarnations do for the simulated machine —
by deterministic re-execution of the driver:

* **Detection** — :class:`~repro.parallel.pool.WorkerPool` polls each
  reply against a per-round deadline derived from the shard size
  (:meth:`SupervisionPolicy.round_deadline`).  A closed pipe classifies
  as ``"crash"``, a deadline overrun as ``"hang"`` (the parent then
  hard-kills the stuck child so the pool can be torn down), and a
  reply that fails to deserialise as ``"corrupt-reply"``.
* **Restart** — every detected failure abandons the attempt:
  :meth:`WorkerSupervisor.fail` raises the internal
  :class:`~repro.core.errors._PoolRestart` signal, the pool and its
  segments are released on the way out, and ``run_ppm``'s
  re-execution loop (the one crash recovery goes round too) re-runs
  the driver in a fresh pool of the same size after an exponential
  back-off (:meth:`SupervisionState.restart`, reusing
  :class:`repro.resilience.retry.RetryPolicy` at host scale).  A
  restarted run *is* a fault-free run, so committed arrays, simulated
  times and reports equal the inline engine's on every kernel the
  model admits (``tests/parallel/test_supervisor.py``).
* **Degradation** — ``max_respawns`` bounds the restarts at one pool
  size.  When the budget is spent the run degrades instead of
  crashing: ``degrade="shrink"`` restarts with one process fewer (at
  one the parent runs alone), ``degrade="inline"`` falls
  straight back to the inline engine, ``degrade="error"`` raises
  :class:`~repro.core.errors.SupervisionExhaustedError` (PPM604).

Chaos testing: :class:`ProcessChaos` is a *real-process* fault
injector — it SIGKILLs or SIGSTOPs a live worker at chosen round or
commit boundaries, deterministically (seeded victim choice, fired
slots consumed so pool restarts never re-fire).  CI runs it via
``python -m repro.resilience chaos --executor process --small
--check``.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal as _signal
import time
from dataclasses import dataclass, field

from repro.core.errors import (
    ParallelConfigError,
    SupervisionExhaustedError,
    _PoolRestart,
)
from repro.obs.events import PoolDegraded, WorkerCrash, WorkerRespawn
from repro.resilience.retry import RetryPolicy

#: Host-scale retry schedule for worker respawns (the simulated-network
#: default of :class:`RetryPolicy` backs off in microseconds; process
#: forks live on the millisecond scale).
_HOST_RETRY = RetryPolicy(
    timeout=0.05, backoff_factor=2.0, max_backoff=1.0, max_retries=16
)


@dataclass
class ProcessChaos:
    """Deterministic real-process fault injection for the worker pool.

    Unlike :class:`repro.resilience.faults.FaultPlan` (which perturbs
    the *simulated* machine), this injector sends actual signals to
    live worker processes at phase-round boundaries, exercising the
    supervisor's detection and restart machinery end to end.

    * ``every`` — fire on every k-th eligible dispatch (1-based, so
      ``every=3`` fires on dispatches 2, 5, 8, ... of the window);
      ``rounds`` — explicit 0-based dispatch indices instead.
    * ``worker`` — fixed victim, the k-th *forked* worker (never the
      parent; with ``workers=1`` nothing fires), or None for a seeded
      per-firing choice (a pure function of ``(seed, dispatch index)``,
      so sweeps are reproducible).
    * ``signal`` — ``"kill"`` (SIGKILL: crash) or ``"stop"`` (SIGSTOP:
      manifests as a hang past the round deadline; the pool then
      hard-kills it and the run recovers identically).
    * ``window`` — ``"round"`` targets phase-round dispatches,
      ``"commit"`` targets zero-merge commit dispatches.

    The dispatch counter and the fired set are *never* reset: a firing
    is consumed, so pool restarts (or resilience incarnations) cannot
    re-fire the same kill forever — the same consume-once rule
    :class:`~repro.resilience.faults.FaultInjector` uses to bound its
    incarnations.  ``rounds=(i, j)`` therefore kills at most twice
    across restarts, while ``every=k`` recurs faster than any run
    longer than ``k`` dispatches and ends in degradation.
    """

    seed: int = 0
    every: int | None = None
    rounds: tuple[int, ...] = ()
    worker: int | None = None
    signal: str = "kill"
    window: str = "round"

    def __post_init__(self) -> None:
        if self.every is not None and self.every < 1:
            raise ParallelConfigError(
                f"chaos every must be >= 1, got {self.every}", code="PPM601"
            )
        if self.signal not in ("kill", "stop"):
            raise ParallelConfigError(
                f"chaos signal must be 'kill' or 'stop', got {self.signal!r}",
                code="PPM601",
            )
        if self.window not in ("round", "commit"):
            raise ParallelConfigError(
                f"chaos window must be 'round' or 'commit', got {self.window!r}",
                code="PPM601",
            )
        if self.every is None and not self.rounds:
            raise ParallelConfigError(
                "chaos needs a trigger: set every=K or rounds=(i, ...)",
                code="PPM601",
            )
        self.rounds = tuple(self.rounds)
        self._dispatch = 0
        self._fired: set[int] = set()

    def should_fire(self, tag: str, n_workers: int) -> int | None:
        """Victim among ``n_workers`` forked workers for this dispatch,
        or None.  Counts every dispatch of the configured window; a
        returned firing is consumed."""
        if tag != self.window or not n_workers:
            return None
        i = self._dispatch
        self._dispatch += 1
        if self.rounds:
            fire = i in self.rounds
        else:
            fire = (i + 1) % self.every == 0
        if not fire or i in self._fired:
            return None
        self._fired.add(i)
        if self.worker is not None:
            return self.worker % n_workers
        digest = hashlib.blake2b(
            f"{self.seed}:{i}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % n_workers


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the worker supervisor (``run_ppm(...,
    supervision=SupervisionPolicy())``).

    ``deadline_base + deadline_per_vp * shard_vps`` host seconds bound
    each worker's reply per round; the defaults are generous (a round
    normally completes in milliseconds) so hang detection never
    misfires on a loaded host.  ``max_respawns`` bounds the restarts
    at one pool size before :attr:`degrade` applies.
    """

    max_respawns: int = 8
    deadline_base: float = 60.0
    deadline_per_vp: float = 0.05
    degrade: str = "shrink"
    retry: RetryPolicy = field(default_factory=lambda: _HOST_RETRY)
    chaos: ProcessChaos | None = None

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ParallelConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}",
                code="PPM601",
            )
        for name in ("deadline_base", "deadline_per_vp"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0 and name == "deadline_base" or v < 0:
                raise ParallelConfigError(
                    f"{name} must be positive and finite, got {v}",
                    code="PPM601",
                )
        if self.degrade not in ("shrink", "inline", "error"):
            raise ParallelConfigError(
                "degrade must be 'shrink', 'inline' or 'error', got "
                f"{self.degrade!r}",
                code="PPM601",
            )

    def round_deadline(self, shard_vps: int) -> float:
        """Reply deadline (host seconds) for a shard of ``shard_vps``."""
        return self.deadline_base + self.deadline_per_vp * shard_vps


@dataclass
class SupervisionState:
    """Mutable counters of one supervised run, surviving pool restarts
    so the final report covers the whole run."""

    crashes: int = 0
    hangs: int = 0
    corrupt: int = 0
    respawns: int = 0
    degradations: int = 0
    recovery_host_s: float = 0.0
    #: Restarts spent at the current pool size (the ``max_respawns``
    #: budget; a degradation starts a new one).
    restarts_at_size: int = 0

    def restart(self, sig: _PoolRestart, policy: SupervisionPolicy,
                opts: dict, t0: float) -> WorkerRespawn | PoolDegraded:
        """Account for one abandoned attempt (started at host time
        ``t0``) and set up the next: back off and count a respawn, or —
        the budget at this size spent — weaken ``opts`` (``run_ppm``'s
        engine options) to one process fewer or to the inline engine.
        Returns the :class:`WorkerRespawn` / :class:`PoolDegraded`
        event of the decision."""
        if sig.mode == "respawn":
            self.restarts_at_size += 1
            time.sleep(policy.retry.backoff(self.restarts_at_size))
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
            opts.update(executor="inline", supervision=None)
            workers_to = 0
        return PoolDegraded(
            phase=-1,
            mode=sig.mode,
            workers_from=sig.workers_from,
            workers_to=workers_to,
        )


class WorkerSupervisor:
    """Parent-side failure handling of one :class:`ProcessBackend`:
    the reply deadline and the chaos hook the pool consults on every
    supervised round-trip, and :meth:`fail`, which turns the failures
    a round-trip detected into the run's restart (or PPM604)."""

    def __init__(self, backend, policy: SupervisionPolicy,
                 state: SupervisionState) -> None:
        self.backend = backend
        self.policy = policy
        self.state = state
        self.pool = None  # set by ProcessBackend after pool creation
        self._max_shard = 0

    # -- do lifecycle (called by the backend) --------------------------
    def begin_do(self, shards) -> None:
        self._max_shard = max((hi - lo for lo, hi in shards), default=0)

    # -- detection hooks (called by the pool) --------------------------
    def deadline_for(self) -> float:
        return self.policy.round_deadline(self._max_shard)

    def maybe_chaos(self, tag: str, sent: list[int]) -> None:
        """Fire the configured chaos injection for this dispatch (a
        no-op without a chaos plan)."""
        chaos = self.policy.chaos
        if chaos is None or self.pool is None:
            return
        victim = chaos.should_fire(tag, self.pool.n_workers)
        if victim is None or victim not in sent:
            return
        sig = _signal.SIGKILL if chaos.signal == "kill" else _signal.SIGSTOP
        proc = self.pool._procs[victim]
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
        state = self.state
        rt = self.backend.rt
        tracer = rt.tracer if rt.resilience is None else rt.resilience.tracer
        for w, kind in failures:
            if kind == "hang":
                state.hangs += 1
            elif kind == "corrupt-reply":
                state.corrupt += 1
            else:
                state.crashes += 1
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
        pol = self.policy
        processes = self.backend.n_workers
        if state.restarts_at_size < pol.max_respawns:
            raise _PoolRestart("respawn", processes, w)
        if pol.degrade == "error":
            raise SupervisionExhaustedError(
                f"respawn budget ({pol.max_respawns}) exhausted recovering "
                f"worker {w} ({kind}) and degrade='error'; raise "
                "max_respawns or pick degrade='shrink'/'inline' to keep "
                "the run alive"
            )
        raise _PoolRestart(pol.degrade, processes, w)
