"""Worker supervision for the process backend: failure detection,
crash recovery and graceful degradation.

The ``executor="process"`` pool of PRs 7–8 treated a dead worker as
fatal: a SIGKILLed, OOM-killed or hung child tore down the whole run.
This module turns every phase-round boundary into a *recovery point*
for the real multi-core path, mirroring what :mod:`repro.resilience`
already does for the simulated machine:

* **Detection** — :class:`~repro.parallel.pool.WorkerPool` polls each
  reply against a per-round deadline derived from the shard size
  (:meth:`SupervisionPolicy.round_deadline`).  A closed pipe classifies
  as ``"crash"``, a deadline overrun as ``"hang"`` (the parent then
  hard-kills the stuck child so the pipe cannot resynchronise on a
  stale reply), and a reply that fails to deserialise as
  ``"corrupt-reply"``.
* **Recovery** — the supervisor respawns the worker from the fork
  template, re-attaches it to the current (or, inside a zero-merge
  commit window, the *retained* pre-swap) shared-memory segments, and
  replays the logged round commands to rebuild the shard's generator
  state: replayed rounds run the real phase bodies but ship no report,
  collectives resolve from the logged results, and the interrupted
  command is then re-dispatched for real.  Committed arrays, simulated
  times and traces stay bitwise-identical to a fault-free inline run
  (property-tested in ``tests/parallel/test_supervisor.py``).
* **Degradation** — a bounded respawn budget with exponential backoff
  (reusing :class:`repro.resilience.retry.RetryPolicy` at host scale).
  When the budget is exhausted the run degrades instead of crashing:
  ``degrade="shrink"`` restarts with one worker fewer (reaching
  ``executor="inline"`` at one), ``degrade="inline"`` falls straight
  back to the inline engine, ``degrade="error"`` raises
  :class:`~repro.core.errors.SupervisionExhaustedError` (PPM604).

Replay soundness: a VP's *cross-phase* private state must derive from
phase collectives, ``ctx`` fields and the kernel's arguments — not
from values read out of shared snapshots in earlier phases.  All
shipped apps satisfy this (snapshots are phase-local by design in the
PPM model); the zero-merge replay matrix in docs/PARALLEL.md spells
out the contract.

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
    ParallelError,
    SupervisionExhaustedError,
)
from repro.obs.events import RoundReplay, WorkerCrash, WorkerRespawn
from repro.resilience.retry import RetryPolicy

#: Supervision counters of the most recently finished supervised run,
#: published for the resilience bench (``python -m repro.bench
#: resilience --executor process`` reads recovery latency from here).
#: Keys mirror :class:`SupervisionState` fields.
LAST_SUPERVISION: dict = {}

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
    supervisor's detection and replay machinery end to end.

    * ``every`` — fire on every k-th eligible dispatch (1-based, so
      ``every=3`` fires on dispatches 2, 5, 8, ... of the window);
      ``rounds`` — explicit 0-based dispatch indices instead.
    * ``worker`` — fixed victim id, or None for a seeded per-firing
      choice (a pure function of ``(seed, dispatch index)``, so sweeps
      are reproducible).
    * ``signal`` — ``"kill"`` (SIGKILL: crash) or ``"stop"`` (SIGSTOP:
      manifests as a hang past the round deadline; the supervisor then
      hard-kills and recovers it identically).
    * ``window`` — ``"round"`` targets phase-round dispatches,
      ``"commit"`` targets zero-merge commit dispatches.

    The dispatch counter and the fired set are *never* reset: a firing
    is consumed, so pool restarts after degradation (or resilience
    incarnations) cannot re-fire the same kill forever — the same
    consume-once rule :class:`~repro.resilience.faults.FaultInjector`
    uses to bound its incarnation loop.
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
        """Victim worker id for this dispatch, or None.  Counts every
        dispatch of the configured window; a returned firing is
        consumed."""
        if tag != self.window:
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
    misfires on a loaded host.  ``max_respawns`` bounds recovery
    attempts per pool incarnation before :attr:`degrade` applies.
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
    (degradation) so the final report covers the whole run."""

    crashes: int = 0
    hangs: int = 0
    corrupt: int = 0
    respawns: int = 0
    replayed_rounds: int = 0
    degradations: int = 0
    recovery_host_s: float = 0.0

    def publish(self) -> None:
        LAST_SUPERVISION.clear()
        LAST_SUPERVISION.update(
            crashes=self.crashes,
            hangs=self.hangs,
            corrupt=self.corrupt,
            respawns=self.respawns,
            replayed_rounds=self.replayed_rounds,
            degradations=self.degradations,
            recovery_host_s=self.recovery_host_s,
        )


class _PoolDegradation(ParallelError):
    """Internal control-flow signal: the respawn budget is exhausted
    and the run must restart in a degraded configuration.  Caught by
    ``run_ppm``'s supervised restart loop; never user-visible."""

    def __init__(self, mode: str, workers_from: int) -> None:
        super().__init__(
            f"worker pool degrading ({mode}) from {workers_from} workers"
        )
        self.mode = mode
        self.workers_from = workers_from


class WorkerSupervisor:
    """Parent-side recovery engine of one :class:`ProcessBackend`.

    The backend logs every dispatched round/commit command here (by
    reference — the backend never mutates a command after dispatch);
    when the pool reports failures mid-roundtrip, :meth:`recover`
    respawns each failed worker and replays its shard's history:

    ========= ==========================================================
    failure   replayed command sequence on the fresh worker
    ========= ==========================================================
    do_start  the original per-worker payload, resent verbatim
    prologue  do_start (current segments) -> prologue
    round     do_start -> prologue -> all prior rounds (replay mode,
              no reports) -> the failed round, re-dispatched for real
    commit    do_start (*retained* pre-swap segments) -> prologue ->
              prior rounds -> the held round (replay, hold mode) ->
              the commit command verbatim + ``restore`` (the worker
              first resets its shard's footprint rows from the
              pristine pre-swap copy, making re-application safe even
              after a partial in-place commit)
    ========= ==========================================================

    Logged commits of *earlier* rounds are skipped entirely (their
    effects live in the current segments) and replayed rounds carry no
    remaps (the fresh ``do_start`` already names current segments).
    """

    def __init__(self, backend, policy: SupervisionPolicy,
                 state: SupervisionState) -> None:
        self.backend = backend
        self.policy = policy
        self.state = state
        self.pool = None  # set by ProcessBackend after pool creation
        self._respawns_used = 0
        # Per-do replay inputs.
        self._common: dict | None = None
        self._payloads: list | None = None
        self._log: list[tuple[str, dict]] = []
        self._max_shard = 0

    # -- do lifecycle (called by the backend) --------------------------
    def begin_do(self, common: dict, payloads: list) -> None:
        self._common = common
        self._payloads = payloads
        self._log = []
        self._max_shard = max(
            (hi - lo) for lo, hi in (p["shard"] for p in payloads)
        )

    def log_round(self, cmd: dict) -> None:
        self._log.append(("round", cmd))

    def log_commit(self, cmd: dict) -> None:
        self._log.append(("commit", cmd))

    def end_do(self) -> None:
        self._common = None
        self._payloads = None
        self._log = []
        self.state.publish()

    # -- detection hooks (called by the pool) --------------------------
    def deadline_for(self, tag: str) -> float:
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
    def recover(self, tag: str, payload, per_worker, failures):
        """Recover every ``(worker, kind)`` failure of one roundtrip;
        returns ``{worker: result body}`` for the pool to splice into
        its reply list."""
        results = {}
        for w, kind in failures:
            results[w] = self._recover_one(w, kind, tag, payload, per_worker)
        return results

    def _recover_one(self, w: int, kind: str, tag: str, payload, per_worker):
        state = self.state
        if kind == "hang":
            state.hangs += 1
        elif kind == "corrupt-reply":
            state.corrupt += 1
        else:
            state.crashes += 1
        self._emit(
            WorkerCrash(phase=self._phase(), worker=w, failure=kind, command=tag)
        )
        pool = self.pool
        pool._reap(w)
        t0 = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            if self._respawns_used >= self.policy.max_respawns:
                self._degrade(w, kind)
            self._respawns_used += 1
            time.sleep(self.policy.retry.backoff(attempt))
            try:
                pool._respawn(w)
                self.backend.reset_worker_decode(w)
                state.respawns += 1
                self._emit(
                    WorkerRespawn(
                        phase=self._phase(),
                        worker=w,
                        attempt=attempt,
                        host_s=time.perf_counter() - t0,
                    )
                )
                result = self._replay(w, tag, payload, per_worker)
            except (EOFError, TimeoutError, OSError):
                # The replacement died (or hung) mid-replay; reap it
                # and go around — the budget check bounds the loop.
                pool._reap(w)
                continue
            state.recovery_host_s += time.perf_counter() - t0
            return result

    def _replay(self, w: int, tag: str, payload, per_worker):
        pool = self.pool
        backend = self.backend
        deadline = self.deadline_for(tag)
        if tag == "do_start":
            pool.send_one(w, "do_start", per_worker[w])
            return pool.recv_one(w, deadline)
        # Rebuild do_start: current segment names, except inside a
        # commit window, where swapped targets re-attach their retained
        # pre-swap segments (the commit command's own remaps then move
        # the worker onto the new ones, exactly as the original worker
        # experienced it).
        overrides = (
            backend.rt.shm.retained_names() if tag == "commit" else None
        )
        common = dict(self._common, shared=backend._shared_specs(overrides))
        pool.send_one(
            w, "do_start",
            {"common": common, "shard": self._payloads[w]["shard"]},
        )
        pool.recv_one(w, deadline)
        pool.send_one(w, "prologue", None)
        prologue_reply = pool.recv_one(w, deadline)
        if tag == "prologue":
            return prologue_reply
        rounds = [cmd for k, cmd in self._log if k == "round"]
        # The failing dispatch is always the last logged entry: exclude
        # it (tag == "round": it is re-dispatched for real below;
        # tag == "commit": its round replays in hold mode below).
        replay_rounds = rounds[:-1]
        replayed = 0
        t0 = time.perf_counter()
        for cmd in replay_rounds:
            pool.send_one(
                w, "round",
                {**cmd, "remaps": [], "mode": "ship", "replay": True},
            )
            pool.recv_one(w, deadline)
            replayed += 1
        if tag == "round":
            pool.send_one(w, "round", dict(payload, remaps=[]))
            result = pool.recv_one(w, deadline)
        else:  # commit: replay the held round, then the commit verbatim
            held_cmd = rounds[-1]
            pool.send_one(
                w, "round", {**held_cmd, "remaps": [], "replay": True}
            )
            pool.recv_one(w, deadline)
            replayed += 1
            pool.send_one(w, "commit", dict(payload, restore=True))
            result = pool.recv_one(w, deadline)
        self.state.replayed_rounds += replayed
        self._emit(
            RoundReplay(
                phase=self._phase(),
                worker=w,
                rounds=replayed,
                host_s=time.perf_counter() - t0,
            )
        )
        return result

    def _degrade(self, w: int, kind: str):
        pol = self.policy
        if pol.degrade == "error":
            raise SupervisionExhaustedError(
                f"respawn budget ({pol.max_respawns}) exhausted recovering "
                f"worker {w} ({kind}) and degrade='error'; raise "
                "max_respawns or pick degrade='shrink'/'inline' to keep "
                "the run alive"
            )
        raise _PoolDegradation(pol.degrade, self.pool.n_workers)

    # -- helpers -------------------------------------------------------
    def _phase(self) -> int:
        rt = self.backend.rt
        return rt.stats_global_phases + rt.stats_node_phases

    def _emit(self, ev) -> None:
        tr = self.backend.rt.tracer
        if tr is not None:
            tr.emit(ev)
