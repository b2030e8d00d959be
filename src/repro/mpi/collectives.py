"""Collective operations for the simulated MPI layer.

Collectives are implemented as rendezvous: every rank contributes its
value and entry time and, until the last one arrives, hands the
launcher's baton on; the last arriver computes the results (folding in
rank order, so floating-point results are deterministic) and the
completion time ``max(entry_times) + cost``, then queues the waiters in
rank order; every rank merges the completion time into its clock.

Costs use hierarchical tree formulas: a tree across the ranks of one
node at intra-node message cost plus a tree across nodes at network
cost — the natural shape of a tuned multicore-cluster collective.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from repro.machine.cluster import Cluster
from repro.mpi.datatypes import copy_payload, payload_nbytes

_OPS: dict[str, Callable] = {
    "sum": operator.add,
    "prod": operator.mul,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b),
}


def resolve_op(op: str | Callable) -> Callable:
    """Map an op name ('sum', 'prod', 'min', 'max') or callable to a
    binary function."""
    if callable(op):
        return op
    try:
        return _OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; expected one of {sorted(_OPS)}") from None


def fold(values: list, op: str | Callable):
    """Left-fold ``values`` (in rank order) with ``op``."""
    if not values:
        raise ValueError("cannot reduce zero values")
    fn = resolve_op(op)
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


def _max_nbytes(values: list) -> int:
    return max(payload_nbytes(x) for x in values)


class CollectiveMismatchError(RuntimeError):
    """Ranks called different collective operations concurrently."""


class CollectiveEngine:
    """Shared rendezvous state for one job's collectives."""

    def __init__(self, size: int, cluster: Cluster, baton) -> None:
        self.size = size
        self.cluster = cluster
        self._baton = baton
        self._contrib: dict[int, tuple[object, float]] = {}
        self._kinds: set[str] = set()
        self._result: tuple[list, float] | None = None
        """The last completed rendezvous's per-rank results and
        completion time.  One slot suffices: the next rendezvous cannot
        complete before every waiter of this one has read it."""

    # ------------------------------------------------------------------
    # Cost model helpers
    # ------------------------------------------------------------------
    def _layout(self) -> tuple[int, int]:
        """(nodes involved, max ranks on one node) for this job."""
        cpn = self.cluster.cores_per_node
        nodes = math.ceil(self.size / cpn)
        ranks_per_node = min(self.size, cpn)
        return nodes, ranks_per_node

    @staticmethod
    def _depth(p: int) -> int:
        return max(0, math.ceil(math.log2(p))) if p > 1 else 0

    def _tree_cost(self, nbytes: int) -> float:
        """One tree sweep (reduce or bcast) over the whole job."""
        net = self.cluster.network
        cfg = self.cluster.config
        nodes, rpn = self._layout()
        intra = self._depth(rpn) * (
            net.message_time(nbytes, intra_node=True)
            + cfg.effective_msg_overhead(True)
        )
        inter = self._depth(nodes) * (
            net.message_time(nbytes, intra_node=False) + cfg.mpi_msg_overhead
        )
        return intra + inter

    def _cost(self, kind: str, nbytes: int) -> float:
        net = self.cluster.network
        nodes, rpn = self._layout()
        if kind == "barrier":
            return net.barrier_time(nodes) + net.barrier_time(rpn)
        if kind in ("bcast", "reduce", "gather", "scatter", "scan"):
            return self._tree_cost(nbytes)
        if kind == "allreduce":
            return 2.0 * self._tree_cost(nbytes)
        if kind == "allgather":
            if self.size <= 1:
                return 0.0
            intra = nodes == 1
            step = net.message_time(nbytes, intra) + self.cluster.config.effective_msg_overhead(intra)
            return (self.size - 1) * step
        raise ValueError(f"unknown collective kind {kind!r}")

    # ------------------------------------------------------------------
    # Rendezvous core
    # ------------------------------------------------------------------
    def _exchange(self, comm, kind: str, value: object, finalize: Callable) -> object:
        """Contribute ``value``; when everyone arrived, ``finalize``
        builds per-rank results and the completion time; return this
        rank's result after merging the completion time."""
        rank = comm.rank
        self._contrib[rank] = (value, comm.ctx.now)
        self._kinds.add(kind)
        if len(self._contrib) == self.size:
            kinds = sorted(self._kinds)
            values = [self._contrib[r][0] for r in range(self.size)]
            entries = [self._contrib[r][1] for r in range(self.size)]
            self._contrib.clear()
            self._kinds.clear()
            if len(kinds) != 1:
                raise CollectiveMismatchError(
                    f"ranks called mismatched collectives: {kinds}"
                )
            self._result = finalize(values, entries)
            for r in range(self.size):
                if r != rank:
                    self._baton.wake(r)
        else:
            self._baton.wait(rank, kind)
        results, completion = self._result
        out = results[rank]
        comm.ctx.clock.merge(completion)
        return out

    def _simple(self, comm, kind: str, value: object, nbytes_fn: Callable[[list], int], result_fn: Callable[[list], list]) -> object:
        """A rendezvous priced by the tree formulas of :meth:`_cost`."""
        def finalize(values: list, entries: list) -> tuple[list, float]:
            cost = self._cost(kind, nbytes_fn(values))
            return result_fn(values), max(entries) + cost
        return self._exchange(comm, kind, value, finalize)

    # ------------------------------------------------------------------
    # Public collectives
    # ------------------------------------------------------------------
    def barrier(self, comm) -> None:
        self._simple(comm, "barrier", None, lambda v: 0, lambda v: [None] * self.size)

    def bcast(self, comm, obj: object, root: int) -> object:
        self._check_root(root)
        send = obj if comm.rank == root else None

        def result_fn(values: list) -> list:
            payload = values[root]
            return [payload if r == root else copy_payload(payload) for r in range(self.size)]

        return self._simple(comm, "bcast", send, lambda v: payload_nbytes(v[root]), result_fn)

    def reduce(self, comm, value: object, op: str | Callable, root: int) -> object:
        self._check_root(root)

        def result_fn(values: list) -> list:
            total = fold(values, op)
            return [total if r == root else None for r in range(self.size)]

        return self._simple(comm, "reduce", value, lambda v: payload_nbytes(v[0]), result_fn)

    def allreduce(self, comm, value: object, op: str | Callable) -> object:
        def result_fn(values: list) -> list:
            total = fold(values, op)
            return [copy_payload(total) for _ in range(self.size)]

        return self._simple(comm, "allreduce", value, lambda v: payload_nbytes(v[0]), result_fn)

    def gather(self, comm, value: object, root: int) -> list | None:
        self._check_root(root)

        def result_fn(values: list) -> list:
            return [list(values) if r == root else None for r in range(self.size)]

        return self._simple(comm, "gather", value, _max_nbytes, result_fn)

    def allgather(self, comm, value: object) -> list:
        def result_fn(values: list) -> list:
            return [copy_payload(values) for _ in range(self.size)]

        return self._simple(comm, "allgather", value, _max_nbytes, result_fn)

    def scatter(self, comm, values: list | None, root: int) -> object:
        self._check_root(root)
        if comm.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError(
                    f"scatter root must supply exactly {self.size} values"
                )

        def result_fn(contribs: list) -> list:
            return [copy_payload(v) for v in contribs[root]]

        return self._simple(comm, "scatter", values, lambda v: _max_nbytes(v[root]), result_fn)

    def scan(self, comm, value: object, op: str | Callable) -> object:
        def result_fn(values: list) -> list:
            out = []
            fn = resolve_op(op)
            acc = None
            for v in values:
                acc = v if acc is None else fn(acc, v)
                out.append(copy_payload(acc))
            return out

        return self._simple(comm, "scan", value, lambda v: payload_nbytes(v[0]), result_fn)

    def alltoall(self, comm, values: list) -> list:
        if len(values) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} values per rank, got {len(values)}"
            )

        def finalize(contribs: list, entries: list) -> tuple[list, float]:
            # Personalised exchange.  A real MPI picks its algorithm by
            # payload: pairwise exchange for large messages (serialised
            # injection per rank), Bruck's log-P algorithm for small
            # ones (each of ceil(log2 P) rounds ships about half of a
            # rank's total payload).  Charge the cheaper of the two;
            # completion synchronises at the slowest rank.
            net = self.cluster.network
            cfg = self.cluster.config
            worst = 0.0
            total_bytes = 0
            log_rounds = self._depth(self.size)
            for i in range(self.size):
                t_pairwise = 0.0
                rank_bytes = 0
                for j in range(self.size):
                    if i == j:
                        continue
                    nb = payload_nbytes(contribs[i][j])
                    total_bytes += nb
                    rank_bytes += nb
                    intra = self.cluster.same_node(i, j)
                    t_pairwise += net.message_time(nb, intra) + cfg.effective_msg_overhead(intra)
                t_bruck = log_rounds * (
                    net.message_time(rank_bytes // 2, intra_node=False)
                    + cfg.mpi_msg_overhead
                )
                worst = max(worst, min(t_pairwise, t_bruck))
            results = [
                [
                    contribs[i][j] if i == j else copy_payload(contribs[i][j])
                    for i in range(self.size)
                ]
                for j in range(self.size)
            ]
            self.cluster.trace.record(
                "alltoall", messages=self.size * (self.size - 1), nbytes=total_bytes
            )
            return results, max(entries) + worst

        return self._exchange(comm, "alltoall", values, finalize)

    # ------------------------------------------------------------------
    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range [0, {self.size})")
