"""SPMD launcher for the simulated MPI layer.

``run_mpi(program, cluster)`` plays the role of ``mpiexec``: it starts
one Python thread per rank (one rank per core, node-major layout, as on
the paper's Franklin runs), hands each a :class:`Communicator`, and
collects results.

The rank threads pass a baton: exactly one rank runs at a time, and a
rank hands the baton on only where it would block — a receive with no
matching message (``recv``, ``sendrecv``, ``Request.wait``), a
collective whose rendezvous is incomplete, or a ``probe`` that answers
no.  The schedule is fixed:

* runnable ranks form a FIFO queue that starts in rank order 0…P−1,
  and the baton goes to the head of the queue;
* a rank that finishes or blocks hands the baton on; a ``probe`` that
  answers no sends its caller to the back of the queue first;
* a ``post`` appends its destination when that rank's pending receive
  matches; a completing collective appends its waiters in rank order;
* when the queue is empty and some rank is still blocked, the job is
  deadlocked: :class:`MpiDeadlockError` names every blocked rank and
  what it waits for;
* the first rank to fail, in schedule order, is the job's error; every
  blocked rank is then appended to the queue in rank order and, like
  every queued rank, leaves its thread at its next turn.

Host interleaving therefore never reaches the logical clocks, and a
wildcard receive or a ``probe`` loop sees the same messages on every run.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.machine.cluster import Cluster
from repro.mpi.collectives import CollectiveEngine
from repro.mpi.comm import Communicator, MailboxSystem
from repro.mpi.process import RankContext


class MpiDeadlockError(RuntimeError):
    """Every unfinished rank is blocked; the message names each one and
    what it waits for."""


class _Released(BaseException):
    """The job failed before this rank's next turn.  A ``BaseException``
    so that a program's ``except Exception`` cannot keep the rank going."""


class Baton:
    """One job's schedule: the FIFO run queue and the blocked ranks.

    Only the rank holding the baton calls these methods, so the state
    needs no lock; each rank sleeps on its own semaphore.
    """

    def __init__(self, size: int) -> None:
        self._turn = [threading.Semaphore(0) for _ in range(size)]
        self._done = threading.Semaphore(0)
        self._queue: deque[int] = deque(range(size))
        self._waits: dict[int, str] = {}
        self.error: tuple[int | None, BaseException] | None = None
        """``(rank, exception)`` of the first failure; rank ``None``
        for a deadlock."""

    def run(self) -> None:
        """Give the first turn and return when every rank has finished."""
        self._pass()
        self._done.acquire()

    def resume(self, rank: int) -> None:
        """Sleep until ``rank``'s turn; leave the rank if the job failed."""
        self._turn[rank].acquire()
        self._leave_if_failed()

    def _leave_if_failed(self) -> None:
        # Also checked before blocking: a released rank whose
        # ``finally:`` blocks again must not sleep past the job.
        if self.error is not None:
            raise _Released

    def wait(self, rank: int, what: str) -> None:
        """Block ``rank`` on ``what`` until :meth:`wake` queues it."""
        self._leave_if_failed()
        self._waits[rank] = what
        self._pass()
        self.resume(rank)

    def wake(self, rank: int) -> None:
        del self._waits[rank]
        self._queue.append(rank)

    def requeue(self, rank: int) -> None:
        """Send ``rank`` to the back of the queue (a ``probe`` that
        answered no)."""
        self._leave_if_failed()
        self._queue.append(rank)
        self._pass()
        self.resume(rank)

    def finish(self, rank: int, exc: BaseException | None) -> None:
        """``rank``'s program returned (``exc`` None) or raised."""
        if exc is not None and not isinstance(exc, _Released):
            self._fail(rank, exc)
        self._pass()

    def _fail(self, rank: int | None, exc: BaseException) -> None:
        if self.error is None:
            self.error = (rank, exc)
            self._queue.extend(sorted(self._waits))
            self._waits.clear()

    def _pass(self) -> None:
        if not self._queue and self._waits:
            blocked = "; ".join(
                f"rank {r} waits in {what}" for r, what in sorted(self._waits.items())
            )
            self._fail(None, MpiDeadlockError(f"MPI job deadlocked: {blocked}"))
        if self._queue:
            self._turn[self._queue.popleft()].release()
        else:
            self._done.release()


@dataclass
class MpiResult:
    """Outcome of one SPMD job."""

    results: list
    """Per-rank return values of the program."""

    elapsed: float
    """Simulated makespan: the maximum rank clock at exit."""

    rank_times: list[float] = field(default_factory=list)
    """Per-rank simulated finishing times."""


def run_mpi(
    program: Callable,
    cluster: Cluster,
    *args: object,
    ranks: int | None = None,
    **kwargs: object,
) -> MpiResult:
    """Run ``program(comm, *args, **kwargs)`` as an SPMD job.

    Parameters
    ----------
    program:
        The rank program.  Its first argument is the rank's
        :class:`~repro.mpi.comm.Communicator`.
    cluster:
        The simulated machine.  By default the job uses every core
        (``ranks = cluster.total_cores``).
    ranks:
        Optional smaller rank count (ranks are packed node-major).

    Returns
    -------
    MpiResult
        Per-rank return values and the simulated makespan.

    Raises
    ------
    RuntimeError
        ``"rank r failed: …"`` with the first failing rank's exception
        as ``__cause__``.
    MpiDeadlockError
        When every unfinished rank is blocked.
    """
    size = cluster.total_cores if ranks is None else ranks
    if not 1 <= size <= cluster.total_cores:
        raise ValueError(
            f"ranks must be in [1, {cluster.total_cores}], got {size}"
        )

    baton = Baton(size)
    mailboxes = MailboxSystem(size, baton)
    engine = CollectiveEngine(size, cluster, baton)
    comms: list[Communicator] = []
    for rank in range(size):
        comm = Communicator(RankContext(rank, size, cluster), mailboxes, cluster)
        comm.collectives = engine
        comms.append(comm)

    results: list = [None] * size

    def runner(rank: int) -> None:
        try:
            baton.resume(rank)
            results[rank] = program(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            baton.finish(rank, exc)
        else:
            baton.finish(rank, None)

    threads = [
        threading.Thread(target=runner, args=(rank,), daemon=True, name=f"mpi-rank-{rank}")
        for rank in range(size)
    ]
    for t in threads:
        t.start()
    baton.run()
    for t in threads:
        t.join()
    if baton.error is not None:
        rank, err = baton.error
        if rank is None:
            raise err
        raise RuntimeError(f"rank {rank} failed: {err!r}") from err

    rank_times = [c.ctx.now for c in comms]
    return MpiResult(results=results, elapsed=max(rank_times), rank_times=rank_times)
