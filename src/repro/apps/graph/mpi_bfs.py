"""MPI implementation of level-synchronous BFS.

The owner-computes message-passing formulation: each rank owns a block
of the distance array; per level it expands its local frontier, groups
the neighbour updates by owning rank, ships one bundled update list per
destination (counts first, then the vertex lists — user-written
bundling again), applies incoming updates to its own block, and joins
an allreduce on the global frontier size for termination.
"""

from __future__ import annotations

import numpy as np

from repro.apps.graph.generator import Graph
from repro.apps.graph.serial_bfs import UNREACHED
from repro.apps.common import split_range
from repro.machine import Cluster
from repro.mpi import run_mpi

_TAG_COUNT = 31
_TAG_VERTS = 32


def _bfs_rank(comm, graph: Graph, source: int, blocks):
    rank, size = comm.rank, comm.size
    lo, hi = blocks[rank]
    bounds = np.array([b[0] for b in blocks] + [graph.n])

    dist = np.full(hi - lo, UNREACHED, dtype=np.int64)
    if lo <= source < hi:
        dist[source - lo] = 0

    level = 0
    while True:
        frontier = lo + np.nonzero(dist == level)[0]
        # Expand and group neighbour updates by owner.
        nbrs, edges = graph.expand(frontier)
        comm.work(2 * edges)
        owners = np.searchsorted(bounds, nbrs, side="right") - 1

        outgoing: dict[int, np.ndarray] = {}
        for peer in range(size):
            sel = nbrs[owners == peer]
            if peer == rank:
                mine = sel
            elif sel.size:
                outgoing[peer] = sel
        comm.mem_work(nbrs.size)  # grouping/packing

        # Post all sends first (counts, then vertex lists), then drain
        # the matching receives — the standard deadlock-free ordering.
        for peer in range(size):
            if peer == rank:
                continue
            comm.send(len(outgoing.get(peer, ())), dest=peer, tag=_TAG_COUNT)
        for peer, verts in outgoing.items():
            comm.send(verts, dest=peer, tag=_TAG_VERTS)
        incoming = [mine] if mine.size else []
        for peer in range(size):
            if peer == rank:
                continue
            count = comm.recv(source=peer, tag=_TAG_COUNT)
            if count == 0:
                continue
            verts = comm.recv(source=peer, tag=_TAG_VERTS)
            incoming.append(verts)

        # Apply updates to my block (min semantics = first visit wins).
        if incoming:
            updates = np.unique(np.concatenate(incoming)) - lo
            fresh = updates[dist[updates] == UNREACHED]
            dist[fresh] = level + 1
            comm.mem_work(len(updates))

        total_frontier = comm.allreduce(int(frontier.size), op="sum")
        if total_frontier == 0:
            return dist
        level += 1


def mpi_bfs(
    graph: Graph,
    source: int,
    cluster: Cluster,
    *,
    ranks: int | None = None,
) -> tuple[np.ndarray, float]:
    """Run the MPI BFS baseline; returns distances and simulated time."""
    size = cluster.total_cores if ranks is None else ranks
    blocks = split_range(graph.n, size)
    res = run_mpi(_bfs_rank, cluster, graph, source, blocks, ranks=ranks)
    return np.concatenate(res.results), res.elapsed
