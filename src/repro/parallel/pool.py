"""Worker process pool and the command-pipe protocol.

The process backend keeps one pool of persistent worker processes per
:class:`~repro.core.runtime.PpmRuntime` (created lazily at the first
``ppm.do``, reused across ``do`` calls): ``workers=N`` forks N−1 of
them, the parent being the N-th process.  Parent and workers speak a
strict request/reply protocol over one duplex pipe per worker — every
command sent receives exactly one reply, so the pipes can never
desynchronise across ``do`` boundaries or error paths:

* commands are ``(tag, payload)`` tuples: ``init``, ``do_start`` (a
  worker builds its shard and runs it to its first declarations),
  ``round``, ``commit`` (held rounds only), ``do_end``, ``shutdown``;
* replies are ``("ok", result)``, ``("exc", shipped_exception)`` or
  ``("interrupt", None)`` — a worker-side ``KeyboardInterrupt`` is
  re-raised in the parent *as* ``KeyboardInterrupt``, preserving the
  run_ppm teardown contract.

Workers are daemonic and exit via ``os._exit`` (multiprocessing's
child bootstrap), so a forked worker never runs the parent's inherited
``atexit``/finalizer state — in particular it can never unlink the
parent's shared-memory segments.
"""

from __future__ import annotations

import multiprocessing
import pickle

from repro.core.errors import (
    ParallelConfigError,
    ParallelExecutionError,
    WorkerDeathError,
)


def _start_context():
    """``fork`` where available (workers inherit warm shm mappings and
    module state), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _revive_exception(worker_id: int, shipped) -> BaseException:
    """Turn a worker's shipped exception back into a raisable one."""
    form = shipped[0]
    if form == "ppm504":
        _form, message, _tb = shipped
        return ParallelConfigError(message, code="PPM504")
    if form == "pickled":
        _form, blob, tb = shipped
        try:
            exc = pickle.loads(blob)
        except Exception:
            return ParallelExecutionError(
                f"worker {worker_id} failed and its exception could not be "
                f"deserialised; remote traceback:\n{tb}"
            )
        if isinstance(exc, BaseException):
            exc.add_note(f"(raised in PPM worker {worker_id})")
            return exc
        return ParallelExecutionError(
            f"worker {worker_id} shipped a non-exception payload {exc!r}; "
            f"remote traceback:\n{tb}"
        )
    _form, text, tb = shipped
    return ParallelExecutionError(
        f"worker {worker_id} raised {text}; remote traceback:\n{tb}"
    )


class WorkerPool:
    """A fixed, possibly empty, set of persistent workers and pipes.

    All traffic is a :meth:`send` of one command to every worker, then
    a :meth:`gather` of one reply from each (:meth:`roundtrip` when the
    parent does nothing in between), keeping the one-reply-per-command
    invariant even on error paths: replies are always drained from
    every worker that was successfully sent to *before* any error is
    raised.
    """

    def __init__(self, n_workers: int, init_payload) -> None:
        if n_workers < 0:
            raise ParallelConfigError(
                f"worker pool size must be >= 0, got {n_workers}", code="PPM502"
            )
        # Deferred import: worker imports the runtime stack, which would
        # otherwise cycle through repro.parallel at package import time.
        from repro.parallel.worker import worker_main

        ctx = _start_context()
        self.n_workers = n_workers
        self._procs = []
        self._conns = []
        self._dead: set[int] = set()
        self._closed = False
        #: Failure hook (a
        #: :class:`~repro.parallel.supervisor.SupervisionState`);
        #: None means a worker death is fatal (PPM603).
        self.supervisor = None
        #: Diagnostics: round-command dispatches and the last command
        #: on the pipes, named by the PPM603 message.
        self._round_no = 0
        self._last_tag = "init"
        #: (tag, ids sent to, failures, supervisor) of an ungathered send.
        self._inflight = None
        try:
            for i in range(n_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_main,
                    args=(child_conn, i),
                    name=f"ppm-worker-{i}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            self.roundtrip("init", init_payload)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def roundtrip(self, tag: str, payload, *, per_worker=None, supervised=True):
        """:meth:`send` then :meth:`gather`."""
        self.send(tag, payload, per_worker=per_worker, supervised=supervised)
        return self.gather()

    def send(self, tag: str, payload, *, per_worker=None, supervised=True) -> None:
        """Send ``(tag, payload)`` (or ``per_worker[id]``) to every live
        worker.  A command still in flight — the parent raised between
        its send and gather — is drained first: replies discarded,
        failures left for the next supervised command."""
        if self._closed:
            raise ParallelExecutionError("worker pool is closed")
        if self._inflight is not None:
            _tag, sent, failures, sup = self._inflight
            self._inflight = None
            self._receive(sent, failures, sup)
        sup = self.supervisor if supervised else None
        self._last_tag = tag
        if tag == "round":
            self._round_no += 1
        failures: list[tuple[int, str]] = []
        if sup is not None and self._dead:
            # Workers that died on an unsupervised path (e.g. during a
            # best-effort do_end) fail the next supervised command
            # instead of silently skipping it.
            failures.extend((i, "crash") for i in sorted(self._dead))
        sent = []
        for i, conn in enumerate(self._conns):
            if i in self._dead:
                continue
            body = payload if per_worker is None else per_worker[i]
            try:
                conn.send((tag, body))
            except (OSError, ValueError):
                self._dead.add(i)
                failures.append((i, "crash"))
                continue
            sent.append(i)
        if sup is not None:
            sup.maybe_kill(tag, sent)
        self._inflight = (tag, sent, failures, sup)

    def gather(self) -> list:
        """The results of the command in flight (indexed by worker id;
        ``None`` for dead workers).  Raises after draining every reply.

        Failure handling: a send error or closed pipe classifies the
        worker as ``"crash"``, a reply overrunning the supervisor's
        deadline as ``"hang"`` (the child is hard-killed: a SIGSTOPped
        process would otherwise outlive the pool), and a reply that
        fails to deserialise as ``"corrupt-reply"``.  With a supervisor
        attached (and a ``supervised`` send) the failures are handed to
        :meth:`~repro.parallel.supervisor.SupervisionState.fail`, which
        abandons the attempt (the run restarts in a fresh pool);
        otherwise a :class:`~repro.core.errors.WorkerDeathError`
        (PPM603) names the workers, the failure kinds, the round and
        the command."""
        tag, sent, failures, sup = self._inflight
        self._inflight = None
        replies = self._receive(sent, failures, sup)
        # All replies are drained; now surface failures.  A worker-side
        # KeyboardInterrupt wins (the user hit Ctrl-C; unwind as such).
        results: list = [None] * self.n_workers
        failure = None
        for i in sent:
            reply = replies[i]
            if reply is None:
                continue
            status, body = reply
            if status == "ok":
                results[i] = body
            elif status == "interrupt":
                raise KeyboardInterrupt
            elif failure is None:
                failure = _revive_exception(i, body)
        if failure is not None:
            raise failure
        if failures:
            if sup is not None:
                sup.fail(tag, failures)  # raises: the run restarts
            dead = sorted(i for i, _kind in failures)
            kinds = ", ".join(
                f"worker {i}: {kind}" for i, kind in sorted(failures)
            )
            raise WorkerDeathError(
                f"worker process(es) {dead} died unexpectedly during "
                f"{tag!r} (round {self._round_no}; {kinds}) — killed, "
                "hung past the deadline, or crashed without shipping "
                "an exception; without run_ppm(..., resilience=) the "
                "pool cannot continue"
            )
        if self._dead:
            dead = sorted(self._dead)
            raise WorkerDeathError(
                f"worker process(es) {dead} died unexpectedly (last "
                f"command {self._last_tag!r}, round {self._round_no}); "
                "the pool cannot continue"
            )
        return results

    def _receive(self, sent: list, failures: list, sup) -> list:
        """Each worker's reply (``None`` where ``failures`` says why)."""
        deadline = sup.deadline_for() if sup is not None else None
        replies: list = [None] * self.n_workers
        for i in sent:
            try:
                if deadline is not None and not self._conns[i].poll(deadline):
                    # Hung: hard-kill (SIGKILL — SIGTERM would stay
                    # pending on a SIGSTOPped child forever).
                    self._dead.add(i)
                    failures.append((i, "hang"))
                    try:
                        self._procs[i].kill()
                    except OSError:  # pragma: no cover - raced exit
                        pass
                    continue
                replies[i] = self._conns[i].recv()
            except (EOFError, OSError):
                self._dead.add(i)
                failures.append((i, "crash"))
            except Exception:
                # recv() deserialisation failure: the pipe returned
                # bytes that do not unpickle.  The stream position is
                # unknowable now, so the worker is retired.
                self._dead.add(i)
                failures.append((i, "corrupt-reply"))
        return replies

    def best_effort(self, tag: str, payload) -> None:
        """Fire ``(tag, payload)`` and drain acks, swallowing every
        failure — used for ``do_end`` on teardown paths where the real
        error is already propagating.  Bypasses supervision: a teardown
        must never raise a restart."""
        try:
            self.roundtrip(tag, payload, supervised=False)
        except BaseException:
            pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down.  Idempotent; escalates from a
        cooperative ``shutdown`` command to ``terminate`` for workers
        that do not exit promptly."""
        if self._closed:
            return
        self._closed = True
        for i, conn in enumerate(self._conns):
            if i in self._dead:
                continue
            try:
                conn.send(("shutdown", None))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
