"""Point-to-point messaging and communicator for the simulated MPI.

One :class:`Communicator` per rank, all sharing a :class:`MailboxSystem`
created by the launcher.  Sends are eager/buffered (payloads are copied
out, the sender does not block).  A receive with no matching message
hands the launcher's baton on and sleeps until a matching ``post``
queues the receiver; a ``probe`` that answers no sends its caller to the
back of the run queue.  Matching is FIFO per (source, tag).

Simulated-time rules (conservative virtual time):

* ``send``: the sender charges the per-message CPU overhead, then the
  message's *arrival* is stamped ``sender_clock + wire_time``;
* ``recv``: the receiver charges its own per-message CPU overhead and
  then merges the arrival stamp into its clock.

Inter-node wire time is inflated by the NIC-contention factor of the
sender's node (MPI ranks inject traffic without coordination; the PPM
runtime's scheduled stream does not pay this — paper section 3.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.machine.cluster import Cluster
from repro.mpi.datatypes import copy_payload, payload_nbytes
from repro.mpi.process import RankContext

ANY_SOURCE = -1
ANY_TAG = -1


def _accepts(source: int, tag: int, key: tuple[int, int]) -> bool:
    """Does a receive for ``(source, tag)`` match a message keyed ``key``?"""
    return source in (ANY_SOURCE, key[0]) and tag in (ANY_TAG, key[1])


class _Message:
    __slots__ = ("source", "tag", "payload", "nbytes", "arrival", "seq")

    def __init__(self, source: int, tag: int, payload: object, nbytes: int, arrival: float, seq: int) -> None:
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.arrival = arrival
        self.seq = seq


class MailboxSystem:
    """Shared in-flight message store for all ranks of one job."""

    def __init__(self, size: int, baton) -> None:
        self._baton = baton
        self._queues: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(size)
        ]
        self._pending: dict[int, tuple[int, int]] = {}
        """Blocked receiver -> the ``(source, tag)`` it waits for."""
        self._seq = 0

    def post(self, dest: int, msg_source: int, tag: int, payload: object, nbytes: int, arrival: float) -> None:
        self._seq += 1
        key = (msg_source, tag)
        self._queues[dest].setdefault(key, deque()).append(
            _Message(msg_source, tag, payload, nbytes, arrival, self._seq)
        )
        want = self._pending.get(dest)
        if want is not None and _accepts(*want, key):
            del self._pending[dest]
            self._baton.wake(dest)

    def _match(self, dest: int, source: int, tag: int) -> _Message | None:
        """Pop the best matching message, or None."""
        queues = self._queues[dest]
        if source != ANY_SOURCE and tag != ANY_TAG:
            q = queues.get((source, tag))
            if q:
                return q.popleft()
            return None
        # Wildcard: choose the candidate with the smallest (arrival,
        # seq) for reproducibility given identical posting histories.
        best_key: tuple[int, int] | None = None
        best: _Message | None = None
        for key, q in queues.items():
            if not q or not _accepts(source, tag, key):
                continue
            head = q[0]
            if best is None or (head.arrival, head.seq) < (best.arrival, best.seq):
                best, best_key = head, key
        if best is not None and best_key is not None:
            queues[best_key].popleft()
        return best

    def take(self, dest: int, source: int, tag: int) -> _Message:
        msg = self._match(dest, source, tag)
        while msg is None:
            self._pending[dest] = (source, tag)
            self._baton.wait(dest, f"recv(source={source}, tag={tag})")
            msg = self._match(dest, source, tag)
        return msg

    def peek(self, dest: int, source: int, tag: int) -> bool:
        """True when a matching message is queued; otherwise ``dest``
        goes to the back of the run queue before hearing no."""
        if any(q and _accepts(source, tag, key) for key, q in self._queues[dest].items()):
            return True
        self._baton.requeue(dest)
        return False


class Request:
    """Handle for a non-blocking operation; ``wait()`` completes it."""

    def __init__(self, complete: Callable[[], object]) -> None:
        self._complete = complete
        self._done = False
        self._value: object = None

    def wait(self) -> object:
        """Block until the operation completes; returns the received
        payload for ``irecv`` requests, ``None`` for ``isend``."""
        if not self._done:
            self._value = self._complete()
            self._done = True
        return self._value

    def test(self) -> bool:
        """True when the operation already completed via :meth:`wait`."""
        return self._done


class Communicator:
    """One rank's endpoint: identity plus messaging operations.

    Collective operations live in
    :class:`~repro.mpi.collectives.CollectiveEngine` and are bound to
    the communicator by the launcher (``comm.barrier()`` etc.).
    """

    def __init__(
        self,
        ctx: RankContext,
        mailboxes: MailboxSystem,
        cluster: Cluster,
    ) -> None:
        self.ctx = ctx
        self._mail = mailboxes
        self._cluster = cluster
        self.collectives = None  # bound by the launcher

    # -- identity ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    @property
    def config(self):
        return self._cluster.config

    @property
    def now(self) -> float:
        return self.ctx.now

    def work(self, flops: float) -> None:
        """Charge computation to this rank (see :meth:`RankContext.work`)."""
        self.ctx.work(flops)

    def mem_work(self, accesses: float) -> None:
        """Charge irregular memory accesses to this rank."""
        self.ctx.mem_work(accesses)

    # -- point-to-point --------------------------------------------------
    def _wire_time(self, nbytes: int, dest: int) -> tuple[float, bool]:
        intra = self._cluster.same_node(self.rank, dest)
        net = self._cluster.network
        t = net.message_time(nbytes, intra)
        if not intra:
            # Uncoordinated injection from this node's ranks.
            t *= net.contention_factor(self._cluster.cores_per_node)
        return t, intra

    def send(self, obj: object, dest: int, tag: int = 0) -> None:
        """Buffered send: copies ``obj`` and returns immediately."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range [0, {self.size})")
        nbytes = payload_nbytes(obj)
        wire, intra = self._wire_time(nbytes, dest)
        self.ctx.clock.advance(self._cluster.network.message_cpu_overhead(intra))
        arrival = self.ctx.now + wire
        self._mail.post(dest, self.rank, tag, copy_payload(obj), nbytes, arrival)
        self._cluster.trace.record("msg", messages=1, nbytes=nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> object:
        """Blocking receive; returns the payload."""
        msg = self._mail.take(self.rank, source, tag)
        intra = self._cluster.same_node(self.rank, msg.source)
        self.ctx.clock.advance(self._cluster.network.message_cpu_overhead(intra))
        self.ctx.clock.merge(msg.arrival)
        return msg.payload

    def isend(self, obj: object, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eagerly buffered, hence already complete)."""
        self.send(obj, dest, tag)
        req = Request(lambda: None)
        req.wait()
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; completion happens at ``wait()``."""
        return Request(lambda: self.recv(source, tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is already available.  Before
        answering no, the caller goes to the back of the run queue, so a
        busy ``probe`` loop cannot starve the sender it waits for."""
        return self._mail.peek(self.rank, source, tag)

    def sendrecv(self, obj: object, dest: int, source: int, sendtag: int = 0, recvtag: int = ANY_TAG) -> object:
        """Combined exchange, deadlock-free by eager buffering."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives (delegated) ----------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks."""
        self.collectives.barrier(self)

    def bcast(self, obj: object, root: int = 0) -> object:
        """Broadcast ``obj`` from ``root`` to every rank."""
        return self.collectives.bcast(self, obj, root)

    def reduce(self, value: object, op: str | Callable = "sum", root: int = 0) -> object:
        """Reduce to ``root`` (returns None elsewhere)."""
        return self.collectives.reduce(self, value, op, root)

    def allreduce(self, value: object, op: str | Callable = "sum") -> object:
        """Reduce and distribute the result to every rank."""
        return self.collectives.allreduce(self, value, op)

    def gather(self, value: object, root: int = 0) -> list | None:
        """Gather one value per rank to ``root``."""
        return self.collectives.gather(self, value, root)

    def allgather(self, value: object) -> list:
        """Gather one value per rank to every rank."""
        return self.collectives.allgather(self, value)

    def scatter(self, values: list | None, root: int = 0) -> object:
        """Scatter a list of ``size`` values from ``root``."""
        return self.collectives.scatter(self, values, root)

    def alltoall(self, values: list) -> list:
        """Personalised all-to-all: ``values[j]`` goes to rank ``j``."""
        return self.collectives.alltoall(self, values)

    def scan(self, value: object, op: str | Callable = "sum") -> object:
        """Inclusive prefix reduction over ranks."""
        return self.collectives.scan(self, value, op)
